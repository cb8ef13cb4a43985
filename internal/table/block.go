package table

import (
	"sync"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/trace"
)

// Alloc abstracts allocation of entry stores so the join can run over
// plain or sealed memory without caring which.
type Alloc func(n int) Store

// PlainAlloc returns an Alloc producing plain traced arrays in s.
func PlainAlloc(s *memory.Space) Alloc {
	return func(n int) Store {
		return memory.Alloc[Entry](s, n, EncodedSize)
	}
}

// SealedSize is the public width of one entry sealed on its own:
// plaintext plus nonce and MAC overhead. The sealed store charges the
// enclave cost model this much per logical entry access at every block
// width.
const SealedSize = EncodedSize + crypto.Overhead

// DefaultSealedBlock is the default number of entries per sealed block
// of a BlockEncrypted store: large enough to amortize the per-record
// nonce and MAC across a batch, small enough that the read-modify-write
// a single Set performs stays cheap.
const DefaultSealedBlock = 16

// initChunk bounds the plaintext staging buffer used when initializing
// a sealed store, in entries.
const initChunk = 1024

// bufPool pools the staging buffers of the sealed store's operations,
// so hot sorting rounds and scans do not allocate per call.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

func getBuf(n int) (*[]byte, []byte) {
	p := bufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return p, (*p)[:n]
}

// putBuf returns a getBuf token to the pool; a nil token (a span the
// heap backing aliased rather than staged) is nothing to return.
func putBuf(p *[]byte) {
	if p != nil {
		bufPool.Put(p)
	}
}

// touches returns a zero-width slice for emitting an n-event trace run
// through a memory.Array[struct{}]; it performs no allocation (zero-size
// elements share the runtime's zero base).
func touches(n int) []struct{} { return make([]struct{}, n) }

// BlockEncrypted is the one sealed Store: entries live encrypted in
// untrusted memory in blocks of B entries per ciphertext record, so a
// k-entry range operation costs ⌈k/B⌉+1 crypto operations instead of k.
// Where the ciphertext lives — the heap, or a spill file when the run's
// memory budget says so (BudgetAlloc) — is its backing's business; the
// three invariants the security argument (§3.1, §3.5) needs are held
// here, once, for both:
//
//   - Block boundaries are a public function of the index. Every
//     logical entry access emits exactly the per-entry trace event of
//     the plain store (same array identifier, same index, same order),
//     so plain, sealed and spilled runs of the same computation produce
//     bit-identical canonical traces at every block width. Physically
//     the untrusted memory (or file) is read and written at block
//     granularity; since block = index / B, the physical pattern is a
//     deterministic function of the logical trace and leaks nothing
//     beyond it.
//   - Every write re-seals under a fresh nonce. A Set (or a range write
//     covering part of a block) opens the block, splices the new
//     entries in, and seals the whole block again, so overwriting an
//     entry with its previous value is indistinguishable from a real
//     update — the property that makes the sorting network's dummy
//     write-backs safe (§3.5). Per-block mutexes make that
//     read-modify-write atomic, so parallel lanes writing disjoint
//     entry ranges that share a boundary block compose correctly;
//     lanes lock blocks in ascending order, so there is no deadlock.
//   - Faults are raised only after unlocking. A failed authentication
//     (the untrusted server tampered with a block) or spill-file IO
//     error is fatal for the run and unwinds as a typed *Fault panic
//     (ErrSealedAuth, ErrSpillIO) that the query runner converts to an
//     error at its boundary; the error is collected inside the critical
//     section and raised after the span's mutexes are released, because
//     unwinding with one held would strand every later access to that
//     block behind a lock nobody can release.
//
// The enclave cost model, like the trace, is charged at logical-entry
// granularity (SealedSize bytes per access) by design: cost-modeled
// runs stay comparable across block widths. It deliberately does not
// model the ~B× physical amplification of a point access against a
// block-sealed store.
type BlockEncrypted struct {
	ev *memory.Array[struct{}] // per-entry trace/cost emitter
	st *blockState
}

// blockState is the storage shared by a BlockEncrypted and its shards.
type blockState struct {
	cipher *crypto.Cipher
	b      int     // entries per block
	n      int     // logical entries
	pt     int     // plaintext bytes per block: b*EncodedSize
	unit   int     // sealed bytes per block: SealedLen(pt)
	bk     backing // where the ⌈n/b⌉ sealed blocks live
	locks  []sync.Mutex
}

// backing is where a sealed store's ciphertext blocks live: block k
// occupies bytes [k*unit, (k+1)*unit) of the heap slice or spill file,
// so the two hold the same layout and nothing but ciphertext.
type backing interface {
	// span returns the buffer sealed blocks [k0, k1] are staged in and
	// the pool token to putBuf when done with it. The heap backing
	// hands out an alias of its resident blocks (nil token), which is
	// why its load and persist have nothing to do; the file backing
	// hands out pooled scratch.
	span(k0, k1 int) (ct []byte, p *[]byte)
	// load fills ct, a whole number of blocks within a span, with the
	// sealed blocks from k on.
	load(ct []byte, k int) error
	// persist makes ct the sealed blocks from k on.
	persist(ct []byte, k int) error
	// close releases the backing; idempotent.
	close()
	// heapBytes is the footprint the gauge charges for the blocks.
	heapBytes() int64
}

// heapBlocks keeps the sealed blocks contiguous on the heap.
type heapBlocks struct {
	ct   []byte
	unit int
}

func (h *heapBlocks) span(k0, k1 int) ([]byte, *[]byte) {
	return h.ct[k0*h.unit : (k1+1)*h.unit], nil
}
func (h *heapBlocks) load([]byte, int) error    { return nil }
func (h *heapBlocks) persist([]byte, int) error { return nil }
func (h *heapBlocks) close()                    {}
func (h *heapBlocks) heapBytes() int64          { return int64(len(h.ct)) }

// NewBlockEncrypted allocates a heap-backed sealed store of n null
// entries in s, sealed under c, with b entries per block (b ≤ 0 selects
// DefaultSealedBlock; 1 seals every entry on its own).
func NewBlockEncrypted(s *memory.Space, c *crypto.Cipher, n, b int) *BlockEncrypted {
	if b <= 0 {
		b = DefaultSealedBlock
	}
	h := &heapBlocks{ct: make([]byte, BlockFootprint(n, b)), unit: crypto.SealedLen(b * EncodedSize)}
	e, _ := newSealed(s, c, n, b, h) // persisting to the heap cannot fail
	return e
}

// newSealed builds the store over bk. Every block is initialized with a
// valid ciphertext of zero entries, so a Get before the first Set
// authenticates; the final block is padded with zero entries to the
// full block width, sealed like everything else and never addressable
// through the Store interface. The initialization writes bypass the
// trace: like the allocation itself they are a fixed function of the
// (public) size n, and keeping them out of the event stream makes a
// sealed run's trace identical to a plain run's. On error bk is closed.
func newSealed(s *memory.Space, c *crypto.Cipher, n, b int, bk backing) (*BlockEncrypted, error) {
	nb := (n + b - 1) / b
	st := &blockState{
		cipher: c,
		b:      b,
		n:      n,
		pt:     b * EncodedSize,
		unit:   crypto.SealedLen(b * EncodedSize),
		bk:     bk,
		locks:  make([]sync.Mutex, nb),
	}
	chunk := min(nb, max(initChunk/b, 1))
	p, zeros := getBuf(chunk * st.pt)
	defer putBuf(p)
	clear(zeros)
	for k := 0; k < nb; k += chunk {
		m := min(chunk, nb-k)
		ct, cp := bk.span(k, k+m-1)
		c.SealRange(ct, zeros[:m*st.pt], st.pt)
		err := bk.persist(ct, k)
		putBuf(cp)
		if err != nil {
			bk.close()
			return nil, err
		}
	}
	return &BlockEncrypted{ev: memory.Alloc[struct{}](s, n, SealedSize), st: st}, nil
}

// Len returns the number of logical entries.
func (e *BlockEncrypted) Len() int { return e.st.n }

// Block returns the store's entries-per-block granularity B.
func (e *BlockEncrypted) Block() int { return e.st.b }

// Close releases the backing (deleting a spill file). Idempotent; the
// gauge's release hook calls it when a streaming stage (or the run's
// teardown) is done with the store.
func (e *BlockEncrypted) Close() { e.st.bk.close() }

// openBlock loads block k into ct, its slot of a staged span, and
// opens it into plain. Callers hold the block's lock.
func (st *blockState) openBlock(plain, ct []byte, k int) error {
	if err := st.bk.load(ct, k); err != nil {
		return err
	}
	return authErr(st.cipher.Open(plain, ct))
}

// Get decrypts the block holding entry i and returns the entry.
func (e *BlockEncrypted) Get(i int) Entry {
	e.ev.Get(i)
	st := e.st
	k := i / st.b
	p, plain := getBuf(st.pt)
	defer putBuf(p)
	ct, cp := st.bk.span(k, k)
	st.locks[k].Lock()
	err := st.openBlock(plain, ct, k)
	st.locks[k].Unlock()
	putBuf(cp)
	raise(err)
	off := (i - k*st.b) * EncodedSize
	return DecodeEntry(plain[off : off+EncodedSize])
}

// Set re-seals the block holding entry i with v spliced in.
func (e *BlockEncrypted) Set(i int, v Entry) {
	e.ev.Set(i, struct{}{})
	st := e.st
	k := i / st.b
	p, plain := getBuf(st.pt)
	defer putBuf(p)
	ct, cp := st.bk.span(k, k)
	st.locks[k].Lock()
	err := st.openBlock(plain, ct, k)
	if err == nil {
		v.Encode(plain[(i-k*st.b)*EncodedSize : (i-k*st.b+1)*EncodedSize])
		st.cipher.Seal(ct, plain)
		err = st.bk.persist(ct, k)
	}
	st.locks[k].Unlock()
	putBuf(cp)
	raise(err)
}

// lockSpan locks blocks [k0, k1] in ascending order.
func (st *blockState) lockSpan(k0, k1 int) {
	for k := k0; k <= k1; k++ {
		st.locks[k].Lock()
	}
}

func (st *blockState) unlockSpan(k0, k1 int) {
	for k := k0; k <= k1; k++ {
		st.locks[k].Unlock()
	}
}

// GetRange decrypts the run [lo, lo+len(dst)) into dst, emitting the
// per-index read events in ascending order; the spanned blocks are
// loaded and opened as one contiguous record range.
func (e *BlockEncrypted) GetRange(lo int, dst []Entry) {
	e.ev.GetRange(lo, touches(len(dst)))
	if len(dst) == 0 {
		return
	}
	st := e.st
	k0, k1 := lo/st.b, (lo+len(dst)-1)/st.b
	p, plain := getBuf((k1 - k0 + 1) * st.pt)
	defer putBuf(p)
	ct, cp := st.bk.span(k0, k1)
	st.lockSpan(k0, k1)
	err := st.bk.load(ct, k0)
	if err == nil {
		err = authErr(st.cipher.OpenRange(plain, ct, st.pt))
	}
	st.unlockSpan(k0, k1)
	putBuf(cp)
	raise(err)
	base := (lo - k0*st.b) * EncodedSize
	for j := range dst {
		dst[j] = DecodeEntry(plain[base+j*EncodedSize : base+(j+1)*EncodedSize])
	}
}

// SetRange re-seals the blocks spanned by [lo, lo+len(src)) with src
// spliced in, each block under a fresh nonce. Fully covered blocks are
// sealed directly; a partially covered boundary block is first opened
// so its uncovered entries survive.
func (e *BlockEncrypted) SetRange(lo int, src []Entry) {
	e.ev.SetRange(lo, touches(len(src)))
	if len(src) == 0 {
		return
	}
	st := e.st
	hi := lo + len(src)
	k0, k1 := lo/st.b, (hi-1)/st.b
	p, plain := getBuf((k1 - k0 + 1) * st.pt)
	defer putBuf(p)
	ct, cp := st.bk.span(k0, k1)
	st.lockSpan(k0, k1)
	err := st.fillBoundaries(plain, ct, lo, hi, k0, k1)
	if err == nil {
		base := (lo - k0*st.b) * EncodedSize
		for j := range src {
			src[j].Encode(plain[base+j*EncodedSize : base+(j+1)*EncodedSize])
		}
		st.cipher.SealRange(ct, plain, st.pt)
		err = st.bk.persist(ct, k0)
	}
	st.unlockSpan(k0, k1)
	putBuf(cp)
	raise(err)
}

// fillBoundaries prepares the plaintext staging buffer for a write of
// [lo, hi) spanning blocks [k0, k1], staged in ct: partially covered
// boundary blocks are opened into place, and the padding tail of the
// table's final block is zeroed. Interior blocks are fully covered and
// need no read-back. Callers hold the span's locks.
func (st *blockState) fillBoundaries(plain, ct []byte, lo, hi, k0, k1 int) error {
	headPartial := lo%st.b != 0
	if headPartial {
		if err := st.openBlock(plain[:st.pt], ct[:st.unit], k0); err != nil {
			return err
		}
	}
	if hi%st.b == 0 || (k1 == k0 && headPartial) {
		return nil
	}
	d := k1 - k0
	tail := plain[d*st.pt : (d+1)*st.pt]
	if hi < st.n {
		return st.openBlock(tail, ct[d*st.unit:(d+1)*st.unit], k1)
	}
	// hi == n: everything past it in block k1 is padding — zero entries
	// by construction — so stage zeros instead of reading back.
	clear(tail[(hi-k1*st.b)*EncodedSize:])
	return nil
}

// Traced reports whether accesses to the sealed storage are recorded.
func (e *BlockEncrypted) Traced() bool { return e.ev.Traced() }

// Recorder returns the recorder the sealed storage feeds.
func (e *BlockEncrypted) Recorder() trace.Recorder { return e.ev.Recorder() }

// Shard returns an alias of the store recording to rec, for parallel
// executors; nil when the underlying memory cannot be sharded. The
// block state — cipher, backing and per-block locks — is shared.
func (e *BlockEncrypted) Shard(rec trace.Recorder) any {
	res := e.ev.Shard(rec)
	if res == nil {
		return nil
	}
	return &BlockEncrypted{ev: res.(*memory.Array[struct{}]), st: e.st}
}

// BlockEncryptedAlloc returns an Alloc producing heap-backed sealed
// stores in s under c with b entries per block (b ≤ 0 selects
// DefaultSealedBlock).
func BlockEncryptedAlloc(s *memory.Space, c *crypto.Cipher, b int) Alloc {
	return func(n int) Store {
		return NewBlockEncrypted(s, c, n, b)
	}
}
