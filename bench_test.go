// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure, plus ablations of the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Sizes are kept moderate so a full run finishes in minutes; the
// oblivbench command sweeps the larger sizes of the paper's figures.
package oblivjoin

import (
	"fmt"
	"testing"

	"oblivjoin/internal/baseline"
	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/compaction"
	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
	"oblivjoin/internal/workload"
)

// ── Table 1: join algorithm comparison (PK-FK workload) ──────────────

func benchTable1(b *testing.B, n int, run func(sp *memory.Space, t1, t2 []table.Row)) {
	t1, t2 := workload.PKFK(n/2, n/2, 1)
	b.ReportMetric(float64(n), "n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := memory.NewSpace(nil, nil)
		run(sp, t1, t2)
	}
}

func BenchmarkTable1_SortMergeInsecure(b *testing.B) {
	benchTable1(b, 4096, func(sp *memory.Space, t1, t2 []table.Row) {
		baseline.SortMergeJoin(sp, t1, t2)
	})
}

func BenchmarkTable1_NestedLoopOblivious(b *testing.B) {
	benchTable1(b, 512, func(sp *memory.Space, t1, t2 []table.Row) {
		baseline.NestedLoopJoin(sp, t1, t2)
	})
}

func BenchmarkTable1_OpaquePKFK(b *testing.B) {
	benchTable1(b, 4096, func(sp *memory.Space, t1, t2 []table.Row) {
		if _, err := baseline.OpaqueJoin(sp, t1, t2); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkTable1_ORAMSortMerge(b *testing.B) {
	benchTable1(b, 1024, func(sp *memory.Space, t1, t2 []table.Row) {
		baseline.ORAMJoin(sp, t1, t2, 7)
	})
}

func BenchmarkTable1_Ours(b *testing.B) {
	benchTable1(b, 4096, func(sp *memory.Space, t1, t2 []table.Row) {
		core.Join(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
	})
}

// ── Table 3: per-component cost at m ≈ n1 = n2 ────────────────────────

func BenchmarkTable3_FullJoin(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t1, t2 := workload.MatchingPairs(n)
			b.ResetTimer()
			var st core.Stats
			for i := 0; i < b.N; i++ {
				st = core.Stats{}
				sp := memory.NewSpace(nil, nil)
				core.Join(&core.Config{Alloc: table.PlainAlloc(sp), Stats: &st}, t1, t2)
			}
			total := float64(st.Total())
			if total > 0 {
				b.ReportMetric(100*float64(st.TAugment)/total, "%augment")
				b.ReportMetric(100*float64(st.TDistSort)/total, "%distsort")
				b.ReportMetric(100*float64(st.TDistRoute)/total, "%route")
				b.ReportMetric(100*float64(st.TAlign)/total, "%align")
			}
		})
	}
}

// ── Figure 7: trace recording cost (the experiment's machinery) ──────

func BenchmarkFig7_TraceLogging(b *testing.B) {
	cls := workload.EqualOutputClasses()[0]
	t1, t2 := cls.Variants[0]()
	for i := 0; i < b.N; i++ {
		res, err := Join(FromRows(t1), FromRows(t2), &Options{TraceHash: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.TraceHash
	}
}

// ── Figure 8: runtime vs input size, all four curves ─────────────────

func benchFig8(b *testing.B, run func(t1, t2 []table.Row)) {
	for _, n := range []int{8192, 32768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t1, t2 := workload.MatchingPairs(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(t1, t2)
			}
		})
	}
}

func BenchmarkFig8_SortMergeInsecure(b *testing.B) {
	benchFig8(b, func(t1, t2 []table.Row) {
		baseline.SortMergeJoin(memory.NewSpace(nil, nil), t1, t2)
	})
}

func BenchmarkFig8_Prototype(b *testing.B) {
	benchFig8(b, func(t1, t2 []table.Row) {
		sp := memory.NewSpace(nil, nil)
		core.Join(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
	})
}

func BenchmarkFig8_SGXSimulated(b *testing.B) {
	benchFig8(b, func(t1, t2 []table.Row) {
		sp := memory.NewSpace(nil, memory.DefaultSGX())
		core.Join(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
	})
}

func BenchmarkFig8_SGXTransformed(b *testing.B) {
	// The §3.4 transformation costs a constant factor per access (the
	// paper measures ×1.11); the transformed cost model charges it.
	benchFig8(b, func(t1, t2 []table.Row) {
		sp := memory.NewSpace(nil, memory.DefaultSGXTransformed())
		core.Join(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
	})
}

// ── Ablations (DESIGN.md §5) ─────────────────────────────────────────

// Deterministic routing distribute vs the probabilistic PRP variant.
func BenchmarkAblationDistribute(b *testing.B) {
	t1, t2 := workload.MatchingPairs(16384)
	for _, prob := range []bool{false, true} {
		name := "routing"
		if prob {
			name = "prp"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := memory.NewSpace(nil, nil)
				core.Join(&core.Config{
					Alloc: table.PlainAlloc(sp), Probabilistic: prob, Seed: 3,
				}, t1, t2)
			}
		})
	}
}

// Bitonic sorter vs Batcher merge-exchange as the network.
func BenchmarkAblationSortNetwork(b *testing.B) {
	t1, t2 := workload.MatchingPairs(16384)
	for _, net := range []core.SortNet{core.Bitonic, core.MergeExchange} {
		name := "bitonic"
		if net == core.MergeExchange {
			name = "merge-exchange"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := memory.NewSpace(nil, nil)
				core.Join(&core.Config{Alloc: table.PlainAlloc(sp), Net: net}, t1, t2)
			}
		})
	}
}

// Null filtering: bitonic sort vs Goodrich O(n log n) compaction.
func BenchmarkAblationCompaction(b *testing.B) {
	const n = 16384
	entries := make([]table.Entry, n)
	for i := range entries {
		entries[i] = table.Entry{J: uint64(i), Null: uint64(i & 1)}
	}
	load := func(sp *memory.Space) table.Store {
		st := table.PlainAlloc(sp)(n)
		for i, e := range entries {
			st.Set(i, e)
		}
		return st
	}
	b.Run("sort-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sp := memory.NewSpace(nil, nil)
			st := load(sp)
			b.StartTimer()
			bitonic.Sort[table.Entry](st, table.LessNullF, table.CondSwapEntry, nil)
		}
	})
	b.Run("goodrich-compaction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sp := memory.NewSpace(nil, nil)
			st := load(sp)
			b.StartTimer()
			compaction.Compact(st, nil)
		}
	})
}

// Cost of the branchless (level-III) discipline vs plain branches for
// the comparator primitive.
func BenchmarkAblationBranchless(b *testing.B) {
	xs := make([]uint64, 4096)
	for i := range xs {
		xs[i] = uint64(i * 2654435761)
	}
	b.Run("branchless-select", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			x := xs[i&4095]
			acc = obliv.Select(obliv.Less(x, acc), x, acc)
		}
		sink = acc
	})
	b.Run("branching", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			x := xs[i&4095]
			if x < acc {
				acc = x
			}
		}
		sink = acc
	})
}

var sink uint64

// Sequential vs goroutine-parallel sorting phases at the join level
// (§6.2's parallelization note).
func BenchmarkAblationParallelJoin(b *testing.B) {
	t1, t2 := workload.MatchingPairs(65536)
	for _, par := range []bool{false, true} {
		name := "sequential"
		if par {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := memory.NewSpace(nil, nil)
				core.Join(&core.Config{Alloc: table.PlainAlloc(sp), Parallel: par}, t1, t2)
			}
		})
	}
}

// BenchmarkJoinParallel measures the round-scheduled parallel pipeline
// against the sequential schedule at n = 2^17 rows *with tracing
// enabled* (a live recorder on every access, sharded per lane and
// merged at round barriers). The canonical trace and all counters are
// identical across the variants — TestJoinParallelTraceEqualsSequential
// pins that — so this measures pure execution-model speedup. On a
// multi-core host the workers=GOMAXPROCS variant is the headline
// number; cmd/oblivbench -exp bench emits the same comparison as JSON.
func BenchmarkJoinParallel(b *testing.B) {
	const n = 1 << 17
	t1, t2 := workload.MatchingPairs(n)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"workers=2", 2},
		{"workers=4", 4},
		{"workers=max", -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(n), "n")
			for i := 0; i < b.N; i++ {
				var c trace.Counter
				sp := memory.NewSpace(&c, nil)
				core.Join(&core.Config{Alloc: table.PlainAlloc(sp), Workers: bc.workers}, t1, t2)
				if c.Total() == 0 {
					b.Fatal("tracing was not enabled")
				}
			}
		})
	}
}

// Plain vs AES-sealed entry storage (the default block-sealed store).
// Kept small: sealing multiplies the per-comparator cost by ~34×, which
// is the ablation's finding.
func BenchmarkAblationEncryption(b *testing.B) {
	t1, t2 := workload.MatchingPairs(1024)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := memory.NewSpace(nil, nil)
			core.Join(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
		}
	})
	b.Run("encrypted", func(b *testing.B) {
		cipher, _, err := crypto.NewRandom()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sp := memory.NewSpace(nil, nil)
			core.Join(&core.Config{Alloc: table.BlockEncryptedAlloc(sp, cipher, 0)}, t1, t2)
		}
	})
}
