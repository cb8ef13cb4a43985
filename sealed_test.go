package oblivjoin

import (
	"fmt"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
	"oblivjoin/internal/workload"
)

// TestSealedStoresTraceEqualAcrossGranularities is the sealed store's
// central invariant at the pipeline level: the full join over plain and
// block-sealed storage — at several block granularities, the per-entry
// B=1 among them — produces
// identical outputs, identical canonical trace hashes and identical
// event counts. Sizes straddle the default block width (1, B−1, B, B+1)
// and include non-multiples of it; B = 3 keeps odd block widths covered.
func TestSealedStoresTraceEqualAcrossGranularities(t *testing.T) {
	cipher, _, err := crypto.NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	b := table.DefaultSealedBlock
	for _, n := range []int{1, b - 1, b, b + 1, 3*b + 7, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t1, t2 := workload.MatchingPairs(n)
			type variant struct {
				name  string
				alloc func(sp *memory.Space) table.Alloc
			}
			variants := []variant{
				{"plain", table.PlainAlloc},
				{"block16", func(sp *memory.Space) table.Alloc { return table.BlockEncryptedAlloc(sp, cipher, 0) }},
				{"block3", func(sp *memory.Space) table.Alloc { return table.BlockEncryptedAlloc(sp, cipher, 3) }},
				{"block1", func(sp *memory.Space) table.Alloc { return table.BlockEncryptedAlloc(sp, cipher, 1) }},
			}
			var refHash string
			var refCount uint64
			var refPairs []table.Pair
			for i, v := range variants {
				h := trace.NewHasher()
				sp := memory.NewSpace(h, nil)
				pairs := core.Join(&core.Config{Alloc: v.alloc(sp)}, t1, t2)
				if i == 0 {
					refHash, refCount, refPairs = h.Hex(), h.Count(), pairs
					continue
				}
				if h.Count() != refCount {
					t.Errorf("%s: %d trace events, want %d", v.name, h.Count(), refCount)
				}
				if h.Hex() != refHash {
					t.Errorf("%s: canonical trace hash diverges from plain", v.name)
				}
				if len(pairs) != len(refPairs) {
					t.Fatalf("%s: %d pairs, want %d", v.name, len(pairs), len(refPairs))
				}
				for k := range pairs {
					if pairs[k] != refPairs[k] {
						t.Fatalf("%s: pair %d = %+v, want %+v", v.name, k, pairs[k], refPairs[k])
					}
				}
			}
		})
	}
}

// TestJoinOptionsSealedBlock exercises the public Options plumbing:
// Encrypted selects the block-sealed store, and it agrees with the
// plain run.
func TestJoinOptionsSealedBlock(t *testing.T) {
	left, right := NewTable(), NewTable()
	for i := 0; i < 40; i++ {
		left.MustAppend(uint64(i%10), fmt.Sprintf("l%d", i))
		right.MustAppend(uint64(i%10), fmt.Sprintf("r%d", i))
	}
	var hashes []string
	var rows int
	for _, opt := range []*Options{
		{TraceHash: true},
		{TraceHash: true, Encrypted: true},
	} {
		res, err := Join(left, right, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceHash == "" {
			t.Fatal("no trace hash")
		}
		hashes = append(hashes, res.TraceHash)
		if rows == 0 {
			rows = len(res.Pairs)
		} else if len(res.Pairs) != rows {
			t.Fatalf("output size diverges: %d vs %d", len(res.Pairs), rows)
		}
	}
	for i := 1; i < len(hashes); i++ {
		if hashes[i] != hashes[0] {
			t.Fatalf("variant %d trace hash diverges from plain", i)
		}
	}
}
