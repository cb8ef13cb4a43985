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

// bufPool pools plaintext staging buffers for the batched range
// operations of the sealed stores, so hot sorting rounds and scans do
// not allocate per call.
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

func putBuf(p *[]byte) { bufPool.Put(p) }

// touches returns a zero-width slice for emitting an n-event trace run
// through a memory.Array[struct{}]; it performs no allocation (zero-size
// elements share the runtime's zero base).
func touches(n int) []struct{} { return make([]struct{}, n) }

// BlockEncrypted is a Store whose entries live sealed in public memory
// in blocks of B entries per ciphertext record: a k-entry range
// operation costs ⌈k/B⌉+1 crypto operations instead of k, which is
// what makes the sealed hot path batch-granular.
//
// The observable access pattern is unchanged: every logical entry
// access emits exactly the per-entry trace event of the plain store
// (same array identifier, same index, same order), so plain and sealed
// runs of the same computation produce bit-identical canonical traces
// at every block width. Physically the untrusted memory is read and
// written at block granularity; since block boundaries are a fixed
// public function of the entry index (block = index / B), the physical
// pattern is a deterministic function of the logical trace and leaks
// nothing beyond it.
//
// A Set (or a range write covering part of a block) re-seals the whole
// block: it opens the block, splices the new entries in, and seals it
// under a fresh nonce, so overwriting an entry with its previous value
// is indistinguishable from a real update — the property that makes the
// sorting network's dummy write-backs safe (§3.5). Per-block mutexes
// make that read-modify-write atomic, so parallel lanes writing
// disjoint entry ranges that share a boundary block compose correctly;
// lanes lock blocks in ascending order, so there is no deadlock.
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
	b      int    // entries per block
	n      int    // logical entries
	pt     int    // plaintext bytes per block: b*EncodedSize
	unit   int    // sealed bytes per block: SealedLen(pt)
	ct     []byte // ⌈n/b⌉ contiguous sealed blocks
	locks  []sync.Mutex
}

// block returns block k's ciphertext record.
func (st *blockState) block(k int) []byte { return st.ct[k*st.unit : (k+1)*st.unit] }

// NewBlockEncrypted allocates a block-sealed store of n null entries in
// s, sealed under c, with b entries per block (b ≤ 0 selects
// DefaultSealedBlock; 1 seals every entry on its own). Every block is
// initialized with a valid ciphertext of zero entries, so a Get before
// the first Set authenticates; the final block is padded with zero
// entries to the full block width, sealed like everything else and
// never addressable through the Store interface. The initialization
// writes bypass the trace: like the allocation itself they are a fixed
// function of the (public) size n, and keeping them out of the event
// stream makes a sealed run's trace identical to a plain run's.
func NewBlockEncrypted(s *memory.Space, c *crypto.Cipher, n, b int) *BlockEncrypted {
	if b <= 0 {
		b = DefaultSealedBlock
	}
	nb := (n + b - 1) / b
	st := &blockState{
		cipher: c,
		b:      b,
		n:      n,
		pt:     b * EncodedSize,
		unit:   crypto.SealedLen(b * EncodedSize),
		ct:     make([]byte, nb*crypto.SealedLen(b*EncodedSize)),
		locks:  make([]sync.Mutex, nb),
	}
	chunk := min(nb, max(initChunk/b, 1))
	p, zeros := getBuf(chunk * st.pt)
	defer putBuf(p)
	clear(zeros)
	for k := 0; k < nb; k += chunk {
		m := min(chunk, nb-k)
		c.SealRange(st.ct[k*st.unit:(k+m)*st.unit], zeros[:m*st.pt], st.pt)
	}
	return &BlockEncrypted{
		ev: memory.Alloc[struct{}](s, n, SealedSize),
		st: st,
	}
}

// Len returns the number of logical entries.
func (e *BlockEncrypted) Len() int { return e.st.n }

// Block returns the store's entries-per-block granularity B.
func (e *BlockEncrypted) Block() int { return e.st.b }

// Get decrypts the block holding entry i and returns the entry. A
// failed authentication means the untrusted server tampered with
// memory; that is fatal for the run, so Get unwinds with a typed
// *Fault panic (ErrSealedAuth) that the query runner converts to an
// error at its boundary.
func (e *BlockEncrypted) Get(i int) Entry {
	e.ev.Get(i)
	st := e.st
	k := i / st.b
	p, plain := getBuf(st.pt)
	defer putBuf(p)
	st.locks[k].Lock()
	err := st.cipher.Open(plain, st.block(k))
	st.locks[k].Unlock()
	if err != nil {
		authFault("block", err)
	}
	off := (i - k*st.b) * EncodedSize
	return DecodeEntry(plain[off : off+EncodedSize])
}

// Set re-seals the block holding entry i with v spliced in, under a
// fresh nonce.
func (e *BlockEncrypted) Set(i int, v Entry) {
	e.ev.Set(i, struct{}{})
	st := e.st
	k := i / st.b
	p, plain := getBuf(st.pt)
	defer putBuf(p)
	st.locks[k].Lock()
	err := st.cipher.Open(plain, st.block(k))
	if err == nil {
		v.Encode(plain[(i-k*st.b)*EncodedSize : (i-k*st.b+1)*EncodedSize])
		st.cipher.Seal(st.block(k), plain)
	}
	st.locks[k].Unlock()
	if err != nil {
		authFault("block", err)
	}
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
// opened as one contiguous record range.
func (e *BlockEncrypted) GetRange(lo int, dst []Entry) {
	e.ev.GetRange(lo, touches(len(dst)))
	if len(dst) == 0 {
		return
	}
	st := e.st
	k0, k1 := lo/st.b, (lo+len(dst)-1)/st.b
	p, plain := getBuf((k1 - k0 + 1) * st.pt)
	defer putBuf(p)
	st.lockSpan(k0, k1)
	err := st.cipher.OpenRange(plain, st.ct[k0*st.unit:(k1+1)*st.unit], st.pt)
	st.unlockSpan(k0, k1)
	if err != nil {
		authFault("block", err)
	}
	base := (lo - k0*st.b) * EncodedSize
	for j := range dst {
		dst[j] = DecodeEntry(plain[base+j*EncodedSize : base+(j+1)*EncodedSize])
	}
}

// SetRange re-seals the blocks spanned by [lo, lo+len(src)) with src
// spliced in, each block under a fresh nonce. Fully covered blocks are
// sealed directly; a partially covered boundary block is first opened
// so its uncovered entries survive. The uncovered tail of the table's
// final block is padding, which is always the zero entry, so covering
// through the end of the table needs no read-back.
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
	st.lockSpan(k0, k1)
	err := st.fillBoundaries(plain, lo, hi, k0, k1)
	if err == nil {
		base := (lo - k0*st.b) * EncodedSize
		for j := range src {
			src[j].Encode(plain[base+j*EncodedSize : base+(j+1)*EncodedSize])
		}
		st.cipher.SealRange(st.ct[k0*st.unit:(k1+1)*st.unit], plain, st.pt)
	}
	st.unlockSpan(k0, k1)
	if err != nil {
		authFault("block", err)
	}
}

// fillBoundaries prepares the plaintext staging buffer for a write of
// [lo, hi) spanning blocks [k0, k1]: partially covered boundary blocks
// are opened into place, and the padding tail of the table's final
// block is zeroed. Interior blocks are fully covered and need no
// read-back. Callers hold the span's locks.
func (st *blockState) fillBoundaries(plain []byte, lo, hi, k0, k1 int) error {
	headPartial := lo%st.b != 0
	if headPartial {
		if err := st.cipher.Open(plain[:st.pt], st.block(k0)); err != nil {
			return err
		}
	}
	if hi%st.b == 0 || (k1 == k0 && headPartial) {
		return nil
	}
	tail := plain[(k1-k0)*st.pt : (k1-k0+1)*st.pt]
	if hi < st.n {
		return st.cipher.Open(tail, st.block(k1))
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
// block state — cipher, ciphertexts and per-block locks — is shared.
func (e *BlockEncrypted) Shard(rec trace.Recorder) any {
	res := e.ev.Shard(rec)
	if res == nil {
		return nil
	}
	return &BlockEncrypted{ev: res.(*memory.Array[struct{}]), st: e.st}
}

// BlockEncryptedAlloc returns an Alloc producing block-sealed stores in
// s under c with b entries per block (b ≤ 0 selects
// DefaultSealedBlock).
func BlockEncryptedAlloc(s *memory.Space, c *crypto.Cipher, b int) Alloc {
	return func(n int) Store {
		return NewBlockEncrypted(s, c, n, b)
	}
}
