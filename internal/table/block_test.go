package table

import (
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
)

func newBenchCipher() (*crypto.Cipher, []byte, error) { return crypto.NewRandom() }

// The TestBlockEncrypted* names below pin the default width on the heap
// backing; the bodies, and the other widths and the file backing, are
// in sealed_test.go.

func TestBlockEncryptedGetSetRoundTrip(t *testing.T) { checkGetSet(t, heap16) }

func TestBlockEncryptedRangeRoundTrip(t *testing.T) { checkRange(t, heap16) }

func TestBlockEncryptedPartialWritePreservesNeighbours(t *testing.T) { checkPartialWrite(t, heap16) }

func TestBlockEncryptedTraceMatchesPlain(t *testing.T) { checkTrace(t, heap16) }

func TestBlockEncryptedPanicsOnTamper(t *testing.T) { checkTamper(t, heap16) }

func TestBlockEncryptedShard(t *testing.T) { checkShard(t, heap16) }

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

// TestStoreRangeOpsAllocFree: the sealed store, on either backing, must
// not allocate per call in steady state (untraced spaces; traced runs
// append to the recorder, whose growth is the recorder's).
func TestStoreRangeOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := newCipher(t)
	const n = 256
	buf := make([]Entry, 96)
	for _, k := range sealedKinds {
		st := k.new(t, memory.NewSpace(nil, nil), c, n)
		st.SetRange(3, buf) // warm the scratch pools
		st.GetRange(3, buf)
		for name, fn := range map[string]func(){
			"SetRange": func() { st.SetRange(3, buf) },
			"GetRange": func() { st.GetRange(3, buf) },
			"Set":      func() { st.Set(7, buf[0]) },
			"Get":      func() { _ = st.Get(7) },
		} {
			if avg := testing.AllocsPerRun(50, fn); avg != 0 {
				t.Errorf("%v.%s: %.1f allocs/op, want 0", k, name, avg)
			}
		}
	}
}

// ── microbenchmarks: plain vs sealed vs block-sealed range ops ───────

func benchStores(b *testing.B) map[string]func() Store {
	c, _, err := newBenchCipher()
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 14
	return map[string]func() Store{
		"plain": func() Store {
			return memory.Alloc[Entry](memory.NewSpace(nil, nil), n, EncodedSize)
		},
		"sealed": func() Store {
			return NewBlockEncrypted(memory.NewSpace(nil, nil), c, n, 1)
		},
		"block-sealed": func() Store {
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
