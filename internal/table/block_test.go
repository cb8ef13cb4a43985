package table

import (
	"fmt"
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/trace"
)

func newBenchCipher() (*crypto.Cipher, []byte, error) { return crypto.NewRandom() }

func entryAt(i int) Entry {
	return Entry{J: uint64(i * 7), TID: uint64(1 + i%2), A1: uint64(i), Null: uint64(i % 3 / 2)}
}

// blockSizes covers the boundary shapes the store must get right:
// one entry, just under/at/over one block, and several blocks with a
// ragged tail.
var blockSizes = []int{1, DefaultSealedBlock - 1, DefaultSealedBlock, DefaultSealedBlock + 1, 3*DefaultSealedBlock + 5}

func TestBlockEncryptedGetSetRoundTrip(t *testing.T) {
	for _, n := range blockSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := memory.NewSpace(nil, nil)
			st := NewBlockEncrypted(s, newCipher(t), n, 0)
			if st.Len() != n || st.Block() != DefaultSealedBlock {
				t.Fatalf("Len=%d Block=%d", st.Len(), st.Block())
			}
			var zero Entry
			for i := 0; i < n; i++ {
				if got := st.Get(i); got != zero {
					t.Fatalf("slot %d not zero-initialized: %+v", i, got)
				}
			}
			for i := 0; i < n; i++ {
				st.Set(i, entryAt(i))
			}
			for i := 0; i < n; i++ {
				if got := st.Get(i); got != entryAt(i) {
					t.Fatalf("Get(%d) = %+v, want %+v", i, got, entryAt(i))
				}
			}
		})
	}
}

func TestBlockEncryptedRangeRoundTrip(t *testing.T) {
	c := newCipher(t)
	for _, n := range blockSizes {
		s := memory.NewSpace(nil, nil)
		st := NewBlockEncrypted(s, c, n, 0)
		// Every (lo, k) window: exercises aligned, head-partial,
		// tail-partial and single-block writes, including through the
		// end of the table (padding preservation).
		for lo := 0; lo < n; lo++ {
			for k := 0; lo+k <= n; k += max(1, n/7) {
				src := make([]Entry, k)
				for j := range src {
					src[j] = entryAt(lo + j)
				}
				st.SetRange(lo, src)
				dst := make([]Entry, k)
				st.GetRange(lo, dst)
				for j := range dst {
					if dst[j] != src[j] {
						t.Fatalf("n=%d lo=%d k=%d: entry %d = %+v, want %+v", n, lo, k, j, dst[j], src[j])
					}
				}
			}
		}
	}
}

// TestBlockEncryptedPartialWritePreservesNeighbours: a write covering
// part of a block must not disturb the block's other entries.
func TestBlockEncryptedPartialWritePreservesNeighbours(t *testing.T) {
	const n = 2*DefaultSealedBlock + 3
	s := memory.NewSpace(nil, nil)
	st := NewBlockEncrypted(s, newCipher(t), n, 0)
	for i := 0; i < n; i++ {
		st.Set(i, entryAt(i))
	}
	// Overwrite an interior window straddling a block boundary.
	lo, k := DefaultSealedBlock-3, 7
	src := make([]Entry, k)
	for j := range src {
		src[j] = Entry{J: 999, TID: uint64(j)}
	}
	st.SetRange(lo, src)
	for i := 0; i < n; i++ {
		want := entryAt(i)
		if i >= lo && i < lo+k {
			want = src[i-lo]
		}
		if got := st.Get(i); got != want {
			t.Fatalf("entry %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestBlockEncryptedTraceMatchesPlain: the same access sequence against
// a plain array and block-sealed stores of several granularities, the
// per-entry B=1 among them, must record bit-identical event logs — the
// invariant that makes sealed runs trace-equal to plain runs.
func TestBlockEncryptedTraceMatchesPlain(t *testing.T) {
	c := newCipher(t)
	script := func(st Store, n int) {
		rs := st.(RangeStore)
		for i := 0; i < n; i++ {
			st.Set(i, entryAt(i))
		}
		buf := make([]Entry, n)
		rs.GetRange(0, buf)
		if n > 2 {
			rs.SetRange(1, buf[:n-2])
			rs.GetRange(n/2, buf[:n-n/2])
		}
		st.Get(n - 1)
	}
	for _, n := range blockSizes {
		var logs []*trace.Log
		for _, mk := range []func(s *memory.Space) Store{
			func(s *memory.Space) Store { return memory.Alloc[Entry](s, n, EncodedSize) },
			func(s *memory.Space) Store { return NewBlockEncrypted(s, c, n, 0) },
			func(s *memory.Space) Store { return NewBlockEncrypted(s, c, n, 5) },
			func(s *memory.Space) Store { return NewBlockEncrypted(s, c, n, 1) },
		} {
			log := trace.NewLog()
			script(mk(memory.NewSpace(log, nil)), n)
			logs = append(logs, log)
		}
		for i := 1; i < len(logs); i++ {
			if !logs[0].Equal(logs[i]) {
				t.Fatalf("n=%d: store %d diverges from plain at event %d", n, i, logs[0].FirstDivergence(logs[i]))
			}
		}
	}
}

func TestBlockEncryptedPanicsOnTamper(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	st := NewBlockEncrypted(s, newCipher(t), 20, 0)
	st.Set(17, entryAt(17))
	st.st.ct[st.st.unit+10] ^= 0x01 // a byte of block 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on tampered block ciphertext")
		}
	}()
	st.Get(17) // entry 17 lives in block 1
}

func TestBlockEncryptedShard(t *testing.T) {
	parent := trace.NewLog()
	s := memory.NewSpace(parent, nil)
	st := NewBlockEncrypted(s, newCipher(t), 40, 0)
	before := parent.Len()
	buf := &trace.Buffer{}
	res := st.Shard(buf)
	if res == nil {
		t.Fatal("Shard refused without a cost model")
	}
	sh := res.(*BlockEncrypted)
	want := entryAt(33)
	sh.Set(33, want)
	if got := st.Get(33); got != want {
		t.Fatal("shard write not visible through parent store")
	}
	if buf.Len() != 1 || parent.Len() != before+1 {
		t.Fatalf("buffered=%d parent-delta=%d, want 1/1", buf.Len(), parent.Len()-before)
	}
}

func TestBlockEncryptedRefusesShardUnderCostModel(t *testing.T) {
	s := memory.NewSpace(nil, memory.DefaultSGX())
	st := NewBlockEncrypted(s, newCipher(t), 8, 0)
	if st.Shard(nil) != nil {
		t.Fatal("Shard must refuse when a cost model is attached")
	}
}

func TestBlockEncryptedAlloc(t *testing.T) {
	s := memory.NewSpace(nil, nil)
	st := BlockEncryptedAlloc(s, newCipher(t), 8)(19)
	if st.Len() != 19 {
		t.Fatalf("Len = %d", st.Len())
	}
	if be := st.(*BlockEncrypted); be.Block() != 8 {
		t.Fatalf("Block = %d, want 8", be.Block())
	}
	st.Set(18, entryAt(18))
	if st.Get(18) != entryAt(18) {
		t.Fatal("alloc-produced store broken")
	}
}

// TestStoreRangeOpsAllocFree: the sealed store, per-entry and at the
// default width, must not allocate per range call in steady state (untraced spaces;
// traced runs append to the recorder, whose growth is the recorder's).
func TestStoreRangeOpsAllocFree(t *testing.T) {
	c := newCipher(t)
	const n = 256
	buf := make([]Entry, 96)
	for _, tc := range []struct {
		name string
		st   RangeStore
	}{
		{"BlockEncrypted/1", NewBlockEncrypted(memory.NewSpace(nil, nil), c, n, 1)},
		{"BlockEncrypted", NewBlockEncrypted(memory.NewSpace(nil, nil), c, n, 0)},
	} {
		tc.st.SetRange(3, buf) // warm the scratch pools
		tc.st.GetRange(3, buf)
		if avg := testing.AllocsPerRun(50, func() { tc.st.SetRange(3, buf) }); avg != 0 {
			t.Errorf("%s.SetRange: %.1f allocs/op, want 0", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() { tc.st.GetRange(3, buf) }); avg != 0 {
			t.Errorf("%s.GetRange: %.1f allocs/op, want 0", tc.name, avg)
		}
		set := tc.st.Set
		get := tc.st.Get
		if avg := testing.AllocsPerRun(50, func() { set(7, buf[0]) }); avg != 0 {
			t.Errorf("%s.Set: %.1f allocs/op, want 0", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() { _ = get(7) }); avg != 0 {
			t.Errorf("%s.Get: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}

// ── microbenchmarks: plain vs sealed vs block-sealed range ops ───────

func benchStores(b *testing.B) map[string]func() RangeStore {
	c, _, err := newBenchCipher()
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 14
	return map[string]func() RangeStore{
		"plain": func() RangeStore {
			return memory.Alloc[Entry](memory.NewSpace(nil, nil), n, EncodedSize)
		},
		"sealed": func() RangeStore {
			return NewBlockEncrypted(memory.NewSpace(nil, nil), c, n, 1)
		},
		"block-sealed": func() RangeStore {
			return NewBlockEncrypted(memory.NewSpace(nil, nil), c, n, 0)
		},
	}
}

func BenchmarkStoreSetRange(b *testing.B) {
	for _, name := range []string{"plain", "sealed", "block-sealed"} {
		mk := benchStores(b)[name]
		b.Run(name, func(b *testing.B) {
			st := mk()
			src := make([]Entry, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.SetRange((i*512)%(st.Len()-512), src)
			}
		})
	}
}

func BenchmarkStoreGetRange(b *testing.B) {
	for _, name := range []string{"plain", "sealed", "block-sealed"} {
		mk := benchStores(b)[name]
		b.Run(name, func(b *testing.B) {
			st := mk()
			dst := make([]Entry, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.GetRange((i*512)%(st.Len()-512), dst)
			}
		})
	}
}
