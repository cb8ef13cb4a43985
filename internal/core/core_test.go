package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// referenceJoin is the trivially correct (and trivially non-oblivious)
// nested-loop join used as the ground truth.
func referenceJoin(rows1, rows2 []table.Row) []table.Pair {
	var out []table.Pair
	for _, r1 := range rows1 {
		for _, r2 := range rows2 {
			if r1.J == r2.J {
				out = append(out, table.Pair{D1: r1.D, D2: r2.D})
			}
		}
	}
	return out
}

func pairKey(p table.Pair) string {
	return string(p.D1[:]) + "\x00" + string(p.D2[:])
}

func sortedKeys(ps []table.Pair) []string {
	ks := make([]string, len(ps))
	for i, p := range ps {
		ks[i] = pairKey(p)
	}
	sort.Strings(ks)
	return ks
}

func samePairs(a, b []table.Pair) bool {
	ka, kb := sortedKeys(a), sortedKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func plainConfig() *Config {
	sp := memory.NewSpace(nil, nil)
	return &Config{Alloc: table.PlainAlloc(sp)}
}

func rowsFrom(pairs [][2]uint64) []table.Row {
	rows := make([]table.Row, len(pairs))
	for i, p := range pairs {
		rows[i] = table.Row{J: p[0], D: table.MustData(fmt.Sprintf("d%d_%d", p[0], p[1]))}
	}
	return rows
}

func checkJoin(t *testing.T, cfg *Config, rows1, rows2 []table.Row) {
	t.Helper()
	got := Join(cfg, rows1, rows2)
	want := referenceJoin(rows1, rows2)
	if !samePairs(got, want) {
		t.Fatalf("join mismatch: got %d pairs, want %d\ngot:  %v\nwant: %v",
			len(got), len(want), sortedKeys(got), sortedKeys(want))
	}
}

func TestJoinPaperExample(t *testing.T) {
	// The running example of Figures 1–5: T1 has groups x:{a1,a2},
	// y:{b1..b4}; T2 has x:{u1,u2,u3}, y:{v1,v2}, z:{w1}.
	t1 := []table.Row{
		{J: 'x', D: table.MustData("a1")}, {J: 'x', D: table.MustData("a2")},
		{J: 'y', D: table.MustData("b1")}, {J: 'y', D: table.MustData("b2")},
		{J: 'y', D: table.MustData("b3")}, {J: 'y', D: table.MustData("b4")},
	}
	t2 := []table.Row{
		{J: 'x', D: table.MustData("u1")}, {J: 'x', D: table.MustData("u2")},
		{J: 'x', D: table.MustData("u3")},
		{J: 'y', D: table.MustData("v1")}, {J: 'y', D: table.MustData("v2")},
		{J: 'z', D: table.MustData("w1")},
	}
	cfg := plainConfig()
	got := Join(cfg, t1, t2)
	if len(got) != 2*3+4*2 {
		t.Fatalf("m = %d, want 14", len(got))
	}
	checkJoin(t, plainConfig(), t1, t2)
}

func TestJoinOutputOrderIsLexicographic(t *testing.T) {
	// The aligned output must enumerate each group's Cartesian product
	// lexicographically: for each T1 entry (in (j,d) order), all T2
	// entries in (j,d) order.
	t1 := rowsFrom([][2]uint64{{5, 1}, {5, 2}})
	t2 := rowsFrom([][2]uint64{{5, 1}, {5, 2}, {5, 3}})
	got := Join(plainConfig(), t1, t2)
	want := []table.Pair{
		{D1: t1[0].D, D2: t2[0].D}, {D1: t1[0].D, D2: t2[1].D}, {D1: t1[0].D, D2: t2[2].D},
		{D1: t1[1].D, D2: t2[0].D}, {D1: t1[1].D, D2: t2[1].D}, {D1: t1[1].D, D2: t2[2].D},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = (%s,%s), want (%s,%s)", i,
				table.DataString(got[i].D1), table.DataString(got[i].D2),
				table.DataString(want[i].D1), table.DataString(want[i].D2))
		}
	}
}

func TestJoinEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		t1, t2 [][2]uint64
	}{
		{"both empty", nil, nil},
		{"left empty", nil, [][2]uint64{{1, 1}}},
		{"right empty", [][2]uint64{{1, 1}}, nil},
		{"no overlap", [][2]uint64{{1, 1}, {2, 1}}, [][2]uint64{{3, 1}, {4, 1}}},
		{"single match", [][2]uint64{{1, 1}}, [][2]uint64{{1, 2}}},
		{"full cross 1xn", [][2]uint64{{7, 0}}, [][2]uint64{{7, 1}, {7, 2}, {7, 3}, {7, 4}}},
		{"full cross nx1", [][2]uint64{{7, 1}, {7, 2}, {7, 3}}, [][2]uint64{{7, 0}}},
		{"duplicate rows", [][2]uint64{{1, 1}, {1, 1}}, [][2]uint64{{1, 2}, {1, 2}}},
		{"partial overlap", [][2]uint64{{1, 1}, {2, 2}, {3, 3}}, [][2]uint64{{2, 4}, {3, 5}, {4, 6}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkJoin(t, plainConfig(), rowsFrom(tc.t1), rowsFrom(tc.t2))
		})
	}
}

// genWorkload mirrors the paper's §6 test generation: for a given n it
// produces input classes including n 1×1 groups, a single 1×n group, and
// power-law-distributed group sizes.
func genWorkload(kind string, n int, rng *rand.Rand) (t1, t2 []table.Row) {
	mk := func(j uint64, tid, i int) table.Row {
		return table.Row{J: j, D: table.MustData(fmt.Sprintf("%d:%d:%d", tid, j, i))}
	}
	switch kind {
	case "1x1":
		for i := 0; i < n/2; i++ {
			t1 = append(t1, mk(uint64(i), 1, 0))
			t2 = append(t2, mk(uint64(i), 2, 0))
		}
	case "1xn":
		t1 = append(t1, mk(0, 1, 0))
		for i := 0; i < n-1; i++ {
			t2 = append(t2, mk(0, 2, i))
		}
	case "powerlaw":
		j := uint64(0)
		remaining := n
		for remaining > 0 {
			// Group sizes ~ 1/k: many small groups, a few large ones.
			size := 1 + int(float64(remaining)*rng.Float64()*rng.Float64()*0.3)
			if size > remaining {
				size = remaining
			}
			k1 := rng.Intn(size + 1)
			for i := 0; i < k1; i++ {
				t1 = append(t1, mk(j, 1, i))
			}
			for i := 0; i < size-k1; i++ {
				t2 = append(t2, mk(j, 2, i))
			}
			remaining -= size
			j++
		}
	case "skewleft":
		for i := 0; i < n*3/4; i++ {
			t1 = append(t1, mk(uint64(i%5), 1, i))
		}
		for i := 0; i < n/4; i++ {
			t2 = append(t2, mk(uint64(i%7), 2, i))
		}
	}
	return t1, t2
}

// TestJoinCorrectnessSweep is the §6 correctness experiment: for each n,
// multiple generated inputs of size n across structural classes, all
// checked against the reference join.
func TestJoinCorrectnessSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{2, 4, 10, 30, 100}
	if testing.Short() {
		sizes = []int{2, 10, 30}
	}
	for _, n := range sizes {
		for _, kind := range []string{"1x1", "1xn", "powerlaw", "skewleft"} {
			for rep := 0; rep < 3; rep++ {
				t1, t2 := genWorkload(kind, n, rng)
				checkJoin(t, plainConfig(), t1, t2)
			}
		}
	}
}

func TestJoinProbabilisticDistribute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 10, 40} {
		for _, kind := range []string{"1x1", "powerlaw"} {
			t1, t2 := genWorkload(kind, n, rng)
			sp := memory.NewSpace(nil, nil)
			cfg := &Config{Alloc: table.PlainAlloc(sp), Probabilistic: true, Seed: int64(n)}
			checkJoin(t, cfg, t1, t2)
		}
	}
}

func TestJoinMergeExchangeNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kind := range []string{"1x1", "powerlaw", "1xn"} {
		t1, t2 := genWorkload(kind, 30, rng)
		sp := memory.NewSpace(nil, nil)
		cfg := &Config{Alloc: table.PlainAlloc(sp), Net: MergeExchange}
		checkJoin(t, cfg, t1, t2)
	}
}

// TestJoinComparatorsClosedForm pins the two join variants the SQL
// layer no longer offers — the merge-exchange network and the PRP
// distribute of §5.2, still reachable through Config and the root
// Options — against the closed forms of their sort counts: both sort
// n1+n2 twice and m once; the deterministic distribute sorts and routes
// Lᵢ = max(nᵢ, m) per side, the PRP one sorts nᵢ+m and routes nothing.
// (internal/query's TestJoinCostModelExact pins the bitonic default the
// same way, against the planner's cost model.)
func TestJoinComparatorsClosedForm(t *testing.T) {
	// t1 keys 0..19, t2 keys 5..16 → every t2 key matches once: m = 12.
	const n1, n2, m = 20, 12, 12
	var t1, t2 []table.Row
	for i := 0; i < n1; i++ {
		t1 = append(t1, table.Row{J: uint64(i), D: table.MustData("a")})
	}
	for i := 0; i < n2; i++ {
		t2 = append(t2, table.Row{J: uint64(5 + i), D: table.MustData("b")})
	}
	run := func(cfg Config) *Stats {
		cfg.Alloc = table.PlainAlloc(memory.NewSpace(nil, nil))
		cfg.Stats = &Stats{}
		if out := Join(&cfg, t1, t2); len(out) != m {
			t.Fatalf("m = %d, want %d", len(out), m)
		}
		return cfg.Stats
	}
	base := run(Config{})
	bit, mex := bitonic.Comparators, bitonic.MergeExchangeComparators

	t.Run("mergeexchange", func(t *testing.T) {
		st := run(Config{Net: MergeExchange})
		if want := 2*mex(n1+n2) + mex(max(n1, m)) + mex(max(n2, m)) + mex(m); st.Comparators() != want {
			t.Errorf("comparators = %d, closed form = %d", st.Comparators(), want)
		}
		if st.RouteOps != base.RouteOps {
			t.Errorf("route ops = %d, bitonic run's = %d: routing does not depend on the network", st.RouteOps, base.RouteOps)
		}
	})
	t.Run("probabilistic", func(t *testing.T) {
		st := run(Config{Probabilistic: true, Seed: 7})
		if want := 2*bit(n1+n2) + bit(n1+m) + bit(n2+m) + bit(m); st.Comparators() != want {
			t.Errorf("comparators = %d, closed form = %d", st.Comparators(), want)
		}
		if st.RouteOps != 0 {
			t.Errorf("route ops = %d, want 0: the PRP distribute routes nothing", st.RouteOps)
		}
	})
}

func TestOutputSize(t *testing.T) {
	t1 := rowsFrom([][2]uint64{{1, 1}, {1, 2}, {2, 1}})
	t2 := rowsFrom([][2]uint64{{1, 3}, {2, 4}, {2, 5}, {3, 6}})
	if m := OutputSize(plainConfig(), t1, t2); m != 2*1+1*2 {
		t.Fatalf("OutputSize = %d, want 4", m)
	}
}

func TestStatsPopulated(t *testing.T) {
	sp := memory.NewSpace(nil, nil)
	var st Stats
	cfg := &Config{Alloc: table.PlainAlloc(sp), Stats: &st}
	t1, t2 := genWorkload("powerlaw", 40, rand.New(rand.NewSource(3)))
	out := Join(cfg, t1, t2)
	if st.N1 != len(t1) || st.N2 != len(t2) || st.M != len(out) {
		t.Fatalf("sizes not recorded: %+v", st)
	}
	if st.AugmentSort.CompareExchanges == 0 || st.DistributeSort.CompareExchanges == 0 {
		t.Fatal("sort comparator counts not recorded")
	}
	if st.M > 1 && st.AlignSort.CompareExchanges == 0 {
		t.Fatal("align comparator count not recorded")
	}
	if st.RouteOps == 0 {
		t.Fatal("route ops not recorded")
	}
	if st.Total() <= 0 {
		t.Fatal("durations not recorded")
	}
}

func TestJoinPanicsWithoutAlloc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Join(&Config{}, nil, nil)
}

// traceHash runs the full join over the given inputs recording the trace
// hash of every public-memory access.
func traceHash(rows1, rows2 []table.Row) (string, int) {
	h := trace.NewHasher()
	sp := memory.NewSpace(h, nil)
	cfg := &Config{Alloc: table.PlainAlloc(sp)}
	out := Join(cfg, rows1, rows2)
	return h.Hex(), len(out)
}

// TestObliviousness is the §6.1 experiment: all inputs in the same
// (n1, n2, m) class must produce identical access-pattern hashes.
func TestObliviousness(t *testing.T) {
	classes := []struct {
		name string
		gen  func(variant int) (t1, t2 []table.Row)
	}{
		{
			// n1=n2=4, m=8: different group structures with equal output.
			"n4x4 m8", func(v int) ([]table.Row, []table.Row) {
				switch v {
				case 0: // four 1×2... no: 2 groups of 2×2 → m=8
					return rowsFrom([][2]uint64{{1, 0}, {1, 1}, {2, 0}, {2, 1}}),
						rowsFrom([][2]uint64{{1, 2}, {1, 3}, {2, 2}, {2, 3}})
				case 1: // one 4×2 group → m=8
					return rowsFrom([][2]uint64{{9, 0}, {9, 1}, {9, 2}, {9, 3}}),
						rowsFrom([][2]uint64{{9, 4}, {9, 5}, {7, 0}, {8, 0}})
				default: // one 2×4 group → m=8
					return rowsFrom([][2]uint64{{3, 0}, {3, 1}, {4, 0}, {5, 0}}),
						rowsFrom([][2]uint64{{3, 2}, {3, 3}, {3, 4}, {3, 5}})
				}
			},
		},
		{
			"n6x6 m0", func(v int) ([]table.Row, []table.Row) {
				base := uint64(100 * (v + 1))
				var a, b [][2]uint64
				for i := 0; i < 6; i++ {
					a = append(a, [2]uint64{base + uint64(i), 0})
					b = append(b, [2]uint64{base + 50 + uint64(i), 0})
				}
				return rowsFrom(a), rowsFrom(b)
			},
		},
		{
			"n5x3 m6", func(v int) ([]table.Row, []table.Row) {
				switch v {
				case 0: // 2×3 + 3 unmatched left
					return rowsFrom([][2]uint64{{1, 0}, {1, 1}, {2, 0}, {3, 0}, {4, 0}}),
						rowsFrom([][2]uint64{{1, 2}, {1, 3}, {1, 4}})
				case 1: // 3×2 + others
					return rowsFrom([][2]uint64{{5, 0}, {5, 1}, {5, 2}, {6, 0}, {7, 0}}),
						rowsFrom([][2]uint64{{5, 3}, {5, 4}, {8, 0}})
				default: // one 3×2 group (m=6) + unmatched strays
					return rowsFrom([][2]uint64{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {3, 0}}),
						rowsFrom([][2]uint64{{1, 3}, {1, 4}, {4, 0}})
				}
			},
		},
	}
	for _, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			var first string
			var firstM int
			for v := 0; v < 3; v++ {
				t1, t2 := cl.gen(v)
				h, m := traceHash(t1, t2)
				if v == 0 {
					first, firstM = h, m
					continue
				}
				if m != firstM {
					t.Fatalf("variant %d produced m=%d, class has m=%d — bad test class", v, m, firstM)
				}
				if h != first {
					t.Fatalf("variant %d trace hash differs: algorithm leaks input structure", v)
				}
			}
		})
	}
}

// TestObliviousnessExactLogs compares full event logs (not just hashes)
// for a small class, and pins down the first divergence on failure.
func TestObliviousnessExactLogs(t *testing.T) {
	run := func(t1, t2 []table.Row) *trace.Log {
		log := trace.NewLog()
		sp := memory.NewSpace(log, nil)
		Join(&Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
		return log
	}
	// Class n1=n2=2, m=2: two 1×1 groups vs one 2×... no — 1×2 needs
	// n1=1. Use two 1×1 groups vs one group 2 left / 1 right (2×1=2).
	l1 := run(rowsFrom([][2]uint64{{1, 0}, {2, 0}}), rowsFrom([][2]uint64{{1, 1}, {2, 1}}))
	l2 := run(rowsFrom([][2]uint64{{5, 0}, {5, 1}}), rowsFrom([][2]uint64{{5, 2}, {6, 0}}))
	if !l1.Equal(l2) {
		t.Fatalf("exact logs diverge at event %d of %d/%d",
			l1.FirstDivergence(l2), l1.Len(), l2.Len())
	}
}

// TestTraceDependsOnlyOnSizes confirms the converse direction: different
// (n, m) classes are allowed to (and here do) differ.
func TestTraceDependsOnlyOnSizes(t *testing.T) {
	h1, _ := traceHash(rowsFrom([][2]uint64{{1, 0}}), rowsFrom([][2]uint64{{1, 1}}))
	h2, _ := traceHash(rowsFrom([][2]uint64{{1, 0}, {2, 0}}), rowsFrom([][2]uint64{{1, 1}}))
	if h1 == h2 {
		t.Fatal("different input sizes produced identical traces (suspicious)")
	}
}

// extents records each array's touched extent: its largest accessed
// index plus one.
type extents map[uint32]uint64

func (x extents) Record(e trace.Event) { x[e.Array] = max(x[e.Array], e.Index+1) }

// TestSpaceUsage pins the public-memory footprint of the join against
// the §6.2 accounting: our implementation allocates the combined table
// TC (n entries) plus one distribute array of max(nᵢ, m) per side. (The
// paper's prototype additionally overlaps TC with the expansions to
// reach max(n1,m)+max(n2,m); we keep TC live for clarity and document
// the n-entry difference here.)
func TestSpaceUsage(t *testing.T) {
	cases := []struct{ n1, n2 int }{{8, 8}, {20, 4}, {3, 17}}
	for _, tc := range cases {
		t1, t2 := genWorkload("powerlaw", tc.n1+tc.n2, rand.New(rand.NewSource(31)))
		s := extents{}
		sp := memory.NewSpace(s, nil)
		out := Join(&Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
		m := len(out)
		want := (len(t1) + len(t2)) + max(len(t1), m) + max(len(t2), m)
		got := 0
		for _, ext := range s {
			got += int(ext)
		}
		if got != want {
			t.Fatalf("n1=%d n2=%d m=%d: footprint %d entries, want %d",
				len(t1), len(t2), m, got, want)
		}
	}
}

func TestJoinOverEncryptedStore(t *testing.T) {
	sp := memory.NewSpace(nil, nil)
	cfg := &Config{Alloc: table.BlockEncryptedAlloc(sp, newTestCipher(t), 1)}
	t1, t2 := genWorkload("powerlaw", 20, rand.New(rand.NewSource(21)))
	checkJoin(t, cfg, t1, t2)
}
