package table

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/trace"
)

// This file is the conformance suite of the one sealed store: every
// check runs through the same BlockEncrypted code over each backing and
// a sweep of block widths. The older per-store test names in
// block_test.go, encrypted_test.go and spill_test.go call into it.

// sealedKind is one configuration of the sealed store under test.
type sealedKind struct {
	b    int  // entries per block
	file bool // blocks in a spill file instead of the heap
}

var (
	heap1  = sealedKind{b: 1}
	heap16 = sealedKind{b: DefaultSealedBlock}
	file16 = sealedKind{b: DefaultSealedBlock, file: true}

	sealedKinds = []sealedKind{heap1, {b: 3}, heap16, file16}
)

func newCipher(t testing.TB) *crypto.Cipher {
	t.Helper()
	c, _, err := crypto.NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func plainStore(s *memory.Space, n int) Store {
	return memory.Alloc[Entry](s, n, EncodedSize)
}

func (k sealedKind) String() string {
	if k.file {
		return fmt.Sprintf("file/B=%d", k.b)
	}
	return fmt.Sprintf("heap/B=%d", k.b)
}

// new allocates an n-entry store of this kind, closed with the test.
func (k sealedKind) new(t testing.TB, s *memory.Space, c *crypto.Cipher, n int) *BlockEncrypted {
	t.Helper()
	if !k.file {
		return NewBlockEncrypted(s, c, n, k.b)
	}
	st, err := NewSpillFS(s, c, nil, t.TempDir(), n, k.b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// sizes covers the boundary shapes the store must get right: one entry,
// just under/at/over one block, and several blocks with a ragged tail.
func (k sealedKind) sizes() []int {
	var out []int
	for _, n := range []int{1, k.b - 1, k.b, k.b + 1, 3*k.b + 5} {
		if n > 0 && (len(out) == 0 || n > out[len(out)-1]) {
			out = append(out, n)
		}
	}
	return out
}

// blockBytes returns a copy of block k's ciphertext, through the
// backing's own operations.
func blockBytes(t testing.TB, st *BlockEncrypted, k int) []byte {
	t.Helper()
	ct, p := st.st.bk.span(k, k)
	defer putBuf(p)
	if err := st.st.bk.load(ct, k); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(ct)
}

// tamper flips one bit of block k's ciphertext where it lives.
func tamper(t testing.TB, st *BlockEncrypted, k int) {
	t.Helper()
	ct, p := st.st.bk.span(k, k)
	defer putBuf(p)
	if err := st.st.bk.load(ct, k); err != nil {
		t.Fatal(err)
	}
	ct[len(ct)/2] ^= 0x01
	if err := st.st.bk.persist(ct, k); err != nil {
		t.Fatal(err)
	}
}

// catchFault runs fn and returns the typed fault error it panicked
// with, or nil when it returned normally. A panic of any other kind
// fails the test — the sealed store must never leak raw panics.
func catchFault(t testing.TB, fn func()) (ferr error) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if ferr, ok = AsFault(r); !ok {
			t.Errorf("non-typed panic from sealed store: %v", r)
		}
	}()
	fn()
	return nil
}

func entryAt(i int) Entry {
	return Entry{J: uint64(i * 7), TID: uint64(1 + i%2), A1: uint64(i), Null: uint64(i % 3 / 2)}
}

func fill(st Store) {
	for i := 0; i < st.Len(); i++ {
		st.Set(i, entryAt(i))
	}
}

// checkGetSet: every slot reads as the zero entry before its first
// write, and point writes round-trip.
func checkGetSet(t *testing.T, k sealedKind) {
	c := newCipher(t)
	for _, n := range k.sizes() {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			st := k.new(t, memory.NewSpace(nil, nil), c, n)
			if st.Len() != n || st.Block() != k.b {
				t.Fatalf("Len=%d Block=%d", st.Len(), st.Block())
			}
			for i := 0; i < n; i++ {
				if got := st.Get(i); got != (Entry{}) {
					t.Fatalf("slot %d not zero-initialized: %+v", i, got)
				}
			}
			fill(st)
			for i := 0; i < n; i++ {
				if got := st.Get(i); got != entryAt(i) {
					t.Fatalf("Get(%d) = %+v, want %+v", i, got, entryAt(i))
				}
			}
		})
	}
}

// checkRange round-trips every (lo, k) window: aligned, head-partial,
// tail-partial and single-block writes, including through the end of
// the table (padding preservation).
func checkRange(t *testing.T, k sealedKind) {
	c := newCipher(t)
	for _, n := range k.sizes() {
		st := k.new(t, memory.NewSpace(nil, nil), c, n)
		for lo := 0; lo < n; lo++ {
			for w := 0; lo+w <= n; w += max(1, n/7) {
				src := make([]Entry, w)
				for j := range src {
					src[j] = entryAt(lo*100 + j)
				}
				st.SetRange(lo, src)
				dst := make([]Entry, w)
				st.GetRange(lo, dst)
				for j := range dst {
					if dst[j] != src[j] {
						t.Fatalf("n=%d lo=%d w=%d: entry %d = %+v, want %+v", n, lo, w, j, dst[j], src[j])
					}
					if got := st.Get(lo + j); got != src[j] {
						t.Fatalf("n=%d lo=%d w=%d: Get(%d) = %+v, want %+v", n, lo, w, lo+j, got, src[j])
					}
				}
			}
		}
	}
}

// checkPartialWrite: a write covering part of a block must not disturb
// the block's other entries.
func checkPartialWrite(t *testing.T, k sealedKind) {
	n := 2*k.b + 3
	st := k.new(t, memory.NewSpace(nil, nil), newCipher(t), n)
	fill(st)
	// An interior window straddling the first block boundary.
	lo, w := max(k.b-3, 1), min(7, n-k.b)
	src := make([]Entry, w)
	for j := range src {
		src[j] = Entry{J: 999, TID: uint64(j)}
	}
	st.SetRange(lo, src)
	st.Set(n-1, src[0])
	for i := 0; i < n; i++ {
		want := entryAt(i)
		if i >= lo && i < lo+w {
			want = src[i-lo]
		}
		if i == n-1 {
			want = src[0]
		}
		if got := st.Get(i); got != want {
			t.Fatalf("entry %d = %+v, want %+v", i, got, want)
		}
	}
}

// checkTrace: the same access sequence against a plain array, by
// element loops, and against the sealed store, by loops and by range
// calls, must record bit-identical event logs — the invariant that
// makes sealed and spilled runs trace-equal to plain runs.
func checkTrace(t *testing.T, k sealedKind) {
	c := newCipher(t)
	script := func(st Store, ranged bool) {
		n := st.Len()
		buf := make([]Entry, n)
		fill(st)
		for i := n - 1; i >= 0; i-- {
			st.Get(i)
		}
		if ranged {
			st.GetRange(0, buf)
			st.SetRange(n/2, buf[:n-n/2])
			return
		}
		for i := range buf {
			st.Get(i)
		}
		for i := n / 2; i < n; i++ {
			st.Set(i, buf[i-n/2])
		}
	}
	for _, n := range k.sizes() {
		plain := trace.NewLog()
		script(plainStore(memory.NewSpace(plain, nil), n), false)
		for _, ranged := range []bool{false, true} {
			sealed := trace.NewLog()
			script(k.new(t, memory.NewSpace(sealed, nil), c, n), ranged)
			if plain.Len() == 0 || !plain.Equal(sealed) {
				t.Fatalf("n=%d ranged=%v: sealed trace diverges from plain at event %d", n, ranged, plain.FirstDivergence(sealed))
			}
		}
	}
}

// checkRewrite: rewriting an entry with its own value changes the
// block's ciphertext (fresh nonce) and keeps the plaintext.
func checkRewrite(t *testing.T, k sealedKind) {
	st := k.new(t, memory.NewSpace(nil, nil), newCipher(t), k.b+1)
	e := entryFixture()
	st.Set(0, e)
	before := blockBytes(t, st, 0)
	st.Set(0, e)
	after := blockBytes(t, st, 0)
	if bytes.Equal(before, after) {
		t.Fatal("rewriting identical entry produced identical ciphertext")
	}
	st.SetRange(0, []Entry{e})
	if bytes.Equal(after, blockBytes(t, st, 0)) {
		t.Fatal("range-rewriting identical entry produced identical ciphertext")
	}
	if st.Get(0) != e {
		t.Fatal("plaintext lost across rewrite")
	}
}

// checkTamper: a flipped ciphertext bit fails the accesses that touch
// its block with a typed ErrSealedAuth fault, and no others.
func checkTamper(t *testing.T, k sealedKind) {
	n := 3 * k.b
	st := k.new(t, memory.NewSpace(nil, nil), newCipher(t), n)
	fill(st)
	tamper(t, st, 1)
	for name, fn := range map[string]func(){
		"Get":      func() { st.Get(k.b) },
		"Set":      func() { st.Set(k.b, Entry{}) },
		"GetRange": func() { st.GetRange(0, make([]Entry, n)) },
	} {
		if ferr := catchFault(t, fn); !errors.Is(ferr, ErrSealedAuth) || !errors.Is(ferr, crypto.ErrAuth) {
			t.Fatalf("%s over tampered block = %v, want ErrSealedAuth wrapping crypto.ErrAuth", name, ferr)
		}
	}
	if got := st.Get(n - 1); got != entryAt(n-1) {
		t.Fatalf("untampered block unreadable: %+v", got)
	}
}

// checkPostFaultLiveness: a fault raised inside a multi-block range
// operation leaves no block mutex held — a second goroutine's access to
// the same blocks returns (the PR 9 deadlock class).
func checkPostFaultLiveness(t *testing.T, k sealedKind) {
	n := 3 * k.b
	st := k.new(t, memory.NewSpace(nil, nil), newCipher(t), n)
	fill(st)
	tamper(t, st, 2)
	if ferr := catchFault(t, func() { st.GetRange(0, make([]Entry, n)) }); !errors.Is(ferr, ErrSealedAuth) {
		t.Fatalf("GetRange over tampered block = %v, want ErrSealedAuth", ferr)
	}
	if k.b > 1 {
		// Blocks 0–2 locked, the partially covered tail block fails to open.
		if ferr := catchFault(t, func() { st.SetRange(1, make([]Entry, 2*k.b)) }); !errors.Is(ferr, ErrSealedAuth) {
			t.Fatalf("SetRange into tampered block = %v, want ErrSealedAuth", ferr)
		}
	}
	done := make(chan error, 1)
	go func() {
		var got Entry
		ferr := catchFault(t, func() { got = st.Get(0) })
		if ferr == nil && got != entryAt(0) {
			ferr = fmt.Errorf("Get(0) = %+v", got)
		}
		if ferr == nil && !errors.Is(catchFault(t, func() { st.Get(n - 1) }), ErrSealedAuth) {
			ferr = errors.New("tampered block readable")
		}
		done <- ferr
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("access after a fault blocked: a block mutex is still held")
	}
}

// checkShard: a shard aliases the store's blocks and locks, and records
// to its own recorder.
func checkShard(t *testing.T, k sealedKind) {
	parent := trace.NewLog()
	n := 2*k.b + 2
	st := k.new(t, memory.NewSpace(parent, nil), newCipher(t), n)
	before := parent.Len()
	buf := &trace.Buffer{}
	sh, ok := st.Shard(buf).(*BlockEncrypted)
	if !ok {
		t.Fatal("Shard refused without a cost model")
	}
	want := entryAt(33)
	sh.Set(n-1, want)
	if got := st.Get(n - 1); got != want {
		t.Fatal("shard write not visible through parent store")
	}
	if buf.Len() != 1 || parent.Len() != before+1 {
		t.Fatalf("buffered=%d parent-delta=%d, want 1/1", buf.Len(), parent.Len()-before)
	}
}

// checkCiphertextOnly is the at-rest guarantee: the blocks, wherever
// they live, are exactly ⌈n/B⌉ sealed units and a known plaintext
// pattern written through the store never appears in them. A spill file
// does not survive Close.
func checkCiphertextOnly(t *testing.T, k sealedKind) {
	n := 3*k.b + 5
	st := k.new(t, memory.NewSpace(nil, nil), newCipher(t), n)
	secret := MustData("TOPSECRETPAYLOAD")
	for i := 0; i < n; i++ {
		st.Set(i, Entry{J: 0x4141414141414141, D: secret})
	}
	var raw []byte
	if k.file {
		var err error
		if raw, err = os.ReadFile(spillPath(st)); err != nil {
			t.Fatal(err)
		}
	} else {
		raw = st.st.bk.(*heapBlocks).ct
	}
	if int64(len(raw)) != BlockFootprint(n, k.b) {
		t.Fatalf("sealed size %d, want %d", len(raw), BlockFootprint(n, k.b))
	}
	if bytes.Contains(raw, secret[:]) {
		t.Fatal("sealed blocks contain plaintext payload")
	}
	if bytes.Contains(raw, []byte("AAAAAAAA")) {
		t.Fatal("sealed blocks contain plaintext key bytes")
	}
	st.Close()
	st.Close() // idempotent
	if k.file {
		if _, err := os.Stat(spillPath(st)); !os.IsNotExist(err) {
			t.Fatalf("spill file survives Close: %v", err)
		}
	}
}

func spillPath(st *BlockEncrypted) string { return st.st.bk.(*fileBlocks).f.Name() }

// checkLanesShareBoundaryBlocks: parallel lanes writing and reading
// disjoint entry ranges whose ends fall inside shared blocks compose —
// the per-block read-modify-write is atomic. Run under -race this is
// the storage layer's one piece of lock-based concurrency.
func checkLanesShareBoundaryBlocks(t *testing.T, k sealedKind) {
	const lanes, rounds = 4, 8
	width := 2*k.b + 1 // every lane boundary falls inside a block when B > 1
	n := lanes * width
	st := k.new(t, memory.NewSpace(trace.NewHasher(), nil), newCipher(t), n)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			sh := st.Shard(&trace.Buffer{}).(*BlockEncrypted)
			buf := make([]Entry, width)
			for r := 0; r < rounds; r++ {
				for j := range buf {
					buf[j] = entryAt((lo + j) * (r + 1))
				}
				sh.SetRange(lo, buf)
				sh.Set(lo, buf[0])
				sh.GetRange(lo, buf)
				if got := sh.Get(lo + width - 1); got != buf[width-1] {
					t.Errorf("lane %d round %d: tail entry %+v, want %+v", lo/width, r, got, buf[width-1])
				}
			}
		}(l * width)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got := st.Get(i); got != entryAt(i*rounds) {
			t.Fatalf("entry %d = %+v, want %+v", i, got, entryAt(i*rounds))
		}
	}
}

func TestSealedConformance(t *testing.T) {
	for _, k := range sealedKinds {
		for _, c := range []struct {
			name string
			fn   func(*testing.T, sealedKind)
		}{
			{"get-set", checkGetSet},
			{"range", checkRange},
			{"partial-write", checkPartialWrite},
			{"trace", checkTrace},
			{"rewrite", checkRewrite},
			{"tamper", checkTamper},
			{"post-fault-liveness", checkPostFaultLiveness},
			{"shard", checkShard},
			{"ciphertext-only", checkCiphertextOnly},
			{"lanes", checkLanesShareBoundaryBlocks},
		} {
			t.Run(k.String()+"/"+c.name, func(t *testing.T) { c.fn(t, k) })
		}
	}
}
