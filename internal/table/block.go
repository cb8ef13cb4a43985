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

// putBuf returns a getBuf token to the pool.
func putBuf(p *[]byte) { bufPool.Put(p) }

// touches returns a zero-width slice for emitting an n-event trace run
// through a memory.Array[struct{}]; it performs no allocation (zero-size
// elements share the runtime's zero base).
func touches(n int) []struct{} { return make([]struct{}, n) }

// BlockEncrypted is the one sealed Store: entries live encrypted in
// untrusted memory in blocks of B entries per ciphertext record, so a
// k-entry range operation costs ⌈k/B⌉+1 crypto operations instead of k.
// The three invariants the security argument (§3.1, §3.5) needs are
// held here, once:
//
//   - Block boundaries are a public function of the index. Every
//     logical entry access emits exactly the per-entry trace event of
//     the plain store (same array identifier, same index, same order),
//     so plain and sealed runs of the same computation produce
//     bit-identical canonical traces at every block width. Physically
//     the untrusted memory is read and written at block granularity;
//     since block = index / B, the physical pattern is a deterministic
//     function of the logical trace and leaks nothing beyond it.
//   - Every write re-seals under a fresh nonce. A Set (or a range write
//     covering part of a block) opens the block, splices the new
//     entries in, and seals the whole block again, so overwriting an
//     entry with its previous value is indistinguishable from a real
//     update — the property that makes the sorting network's dummy
//     write-backs safe (§3.5). The read-modify-write is not locked: like
//     the plain store, a sealed store is only ever touched by the one
//     goroutine executing its query.
//   - Faults are typed and leak no staging buffer. A failed
//     authentication (the untrusted memory was tampered with) is fatal
//     for the run and unwinds as a typed *Fault panic (ErrSealedAuth)
//     that the query runner converts to an error at its boundary; the
//     deferred buffer return runs as it unwinds.
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

// blockState is the storage shared by a BlockEncrypted and its trace
// shards.
type blockState struct {
	cipher *crypto.Cipher
	b      int    // entries per block
	n      int    // logical entries
	pt     int    // plaintext bytes per block: b*EncodedSize
	unit   int    // sealed bytes per block: SealedLen(pt)
	ct     []byte // the ⌈n/b⌉ sealed blocks; block k is ct[k*unit:(k+1)*unit]
}

// NewBlockEncrypted allocates a sealed store of n null entries in s,
// sealed under c, with b entries per block (b ≤ 0 selects
// DefaultSealedBlock; 1 seals every entry on its own).
//
// Every block is initialized with a valid ciphertext of zero entries,
// so a Get before the first Set authenticates; the final block is
// padded with zero entries to the full block width, sealed like
// everything else and never addressable through the Store interface.
// The initialization writes bypass the trace: like the allocation
// itself they are a fixed function of the (public) size n, and keeping
// them out of the event stream makes a sealed run's trace identical to
// a plain run's.
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
		ct:     make([]byte, BlockFootprint(n, b)),
	}
	chunk := min(nb, max(initChunk/b, 1))
	p, zeros := getBuf(chunk * st.pt)
	defer putBuf(p)
	clear(zeros)
	for k := 0; k < nb; k += chunk {
		m := min(chunk, nb-k)
		c.SealRange(st.blocks(k, k+m-1), zeros[:m*st.pt], st.pt)
	}
	return &BlockEncrypted{ev: memory.Alloc[struct{}](s, n, SealedSize), st: st}
}

// Len returns the number of logical entries.
func (e *BlockEncrypted) Len() int { return e.st.n }

// Block returns the store's entries-per-block granularity B.
func (e *BlockEncrypted) Block() int { return e.st.b }

// blocks returns sealed blocks [k0, k1] as one contiguous record range.
func (st *blockState) blocks(k0, k1 int) []byte {
	return st.ct[k0*st.unit : (k1+1)*st.unit]
}

// openBlock opens block k into plain.
func (st *blockState) openBlock(plain []byte, k int) error {
	return authErr(st.cipher.Open(plain, st.blocks(k, k)))
}

// Get decrypts the block holding entry i and returns the entry.
func (e *BlockEncrypted) Get(i int) Entry {
	e.ev.Get(i)
	st := e.st
	k := i / st.b
	p, plain := getBuf(st.pt)
	defer putBuf(p)
	raise(st.openBlock(plain, k))
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
	raise(st.openBlock(plain, k))
	v.Encode(plain[(i-k*st.b)*EncodedSize : (i-k*st.b+1)*EncodedSize])
	st.cipher.Seal(st.blocks(k, k), plain)
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
	raise(authErr(st.cipher.OpenRange(plain, st.blocks(k0, k1), st.pt)))
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
	raise(st.fillBoundaries(plain, lo, hi, k0, k1))
	base := (lo - k0*st.b) * EncodedSize
	for j := range src {
		src[j].Encode(plain[base+j*EncodedSize : base+(j+1)*EncodedSize])
	}
	st.cipher.SealRange(st.blocks(k0, k1), plain, st.pt)
}

// fillBoundaries prepares the plaintext staging buffer for a write of
// [lo, hi) spanning blocks [k0, k1]: partially covered boundary blocks
// are opened into place, and the padding tail of the table's final
// block is zeroed. Interior blocks are fully covered and need no
// read-back.
func (st *blockState) fillBoundaries(plain []byte, lo, hi, k0, k1 int) error {
	headPartial := lo%st.b != 0
	if headPartial {
		if err := st.openBlock(plain[:st.pt], k0); err != nil {
			return err
		}
	}
	if hi%st.b == 0 || (k1 == k0 && headPartial) {
		return nil
	}
	d := k1 - k0
	tail := plain[d*st.pt : (d+1)*st.pt]
	if hi < st.n {
		return st.openBlock(tail, k1)
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

// Shard returns an alias of the store recording to rec, for Builder's
// deferred write replay; nil when the underlying memory cannot be
// sharded. The block state — cipher and sealed blocks — is shared.
func (e *BlockEncrypted) Shard(rec trace.Recorder) any {
	res := e.ev.Shard(rec)
	if res == nil {
		return nil
	}
	return &BlockEncrypted{ev: res.(*memory.Array[struct{}]), st: e.st}
}

// BlockEncryptedAlloc returns an Alloc producing sealed stores in s
// under c with b entries per block (b ≤ 0 selects DefaultSealedBlock).
func BlockEncryptedAlloc(s *memory.Space, c *crypto.Cipher, b int) Alloc {
	return func(n int) Store {
		return NewBlockEncrypted(s, c, n, b)
	}
}
