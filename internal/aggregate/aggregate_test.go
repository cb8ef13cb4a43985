package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

func referenceGroupBy(items []Item) []Group {
	agg := map[uint64]*Group{}
	for _, it := range items {
		g, ok := agg[it.K]
		if !ok {
			g = &Group{K: it.K, Min: it.V, Max: it.V}
			agg[it.K] = g
		}
		g.Count++
		g.Sum += it.V
		if it.V < g.Min {
			g.Min = it.V
		}
		if it.V > g.Max {
			g.Max = it.V
		}
	}
	out := make([]Group, 0, len(agg))
	for _, g := range agg {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

func TestGroupByFixed(t *testing.T) {
	items := []Item{
		{K: 2, V: 10}, {K: 1, V: 5}, {K: 2, V: 3}, {K: 1, V: 5}, {K: 3, V: 0},
	}
	got := GroupBy(plainCfg(), items)
	want := []Group{
		{K: 1, Count: 2, Sum: 10, Min: 5, Max: 5},
		{K: 2, Count: 2, Sum: 13, Min: 3, Max: 10},
		{K: 3, Count: 1, Sum: 0, Min: 0, Max: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGroupByEmpty(t *testing.T) {
	if got := GroupBy(plainCfg(), nil); got != nil {
		t.Fatalf("GroupBy(nil) = %v", got)
	}
}

func TestGroupBySingleKey(t *testing.T) {
	got := GroupBy(plainCfg(), []Item{{K: 9, V: 1}, {K: 9, V: 2}, {K: 9, V: 3}})
	if len(got) != 1 || got[0] != (Group{K: 9, Count: 3, Sum: 6, Min: 1, Max: 3}) {
		t.Fatalf("got %+v", got)
	}
}

func TestGroupByProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 120 {
			raw = raw[:120]
		}
		items := make([]Item, len(raw))
		for i, r := range raw {
			items[i] = Item{K: uint64(r % 16), V: uint64(r >> 4)}
		}
		got := GroupBy(plainCfg(), items)
		want := referenceGroupBy(items)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByObliviousWithinClass(t *testing.T) {
	// Same n, same number of groups → identical traces.
	run := func(items []Item) string {
		h := trace.NewHasher()
		sp := memory.NewSpace(h, nil)
		GroupBy(&core.Config{Alloc: table.PlainAlloc(sp)}, items)
		return h.Hex()
	}
	a := run([]Item{{1, 1}, {1, 2}, {2, 3}, {2, 4}}) // 2 groups of 2
	b := run([]Item{{7, 9}, {8, 8}, {8, 7}, {8, 6}}) // groups of 1 and 3
	if a != b {
		t.Fatal("GroupBy trace depends on grouping structure")
	}
}

func TestGroupByMinMaxExtremes(t *testing.T) {
	got := GroupBy(plainCfg(), []Item{{K: 1, V: math.MaxUint64}, {K: 1, V: 0}})
	if got[0].Min != 0 || got[0].Max != math.MaxUint64 {
		t.Fatalf("extremes wrong: %+v", got[0])
	}
}

func plainCfg() *core.Config {
	sp := memory.NewSpace(nil, nil)
	return &core.Config{Alloc: table.PlainAlloc(sp)}
}

func rowsOf(keys []uint64, tid int) []table.Row {
	rows := make([]table.Row, len(keys))
	for i, k := range keys {
		rows[i] = table.Row{J: k, D: table.MustData(fmt.Sprintf("%d:%d:%d", tid, k, i))}
	}
	return rows
}

func TestJoinGroupStatsFixed(t *testing.T) {
	t1 := rowsOf([]uint64{1, 1, 2, 3}, 1) // groups: 1→2 rows, 2→1, 3→1
	t2 := rowsOf([]uint64{1, 2, 2, 9}, 2) // groups: 1→1, 2→2, 9→1
	stats := JoinGroupStats(plainCfg(), t1, t2)
	want := []JoinStat{
		{J: 1, A1: 2, A2: 1, Pairs: 2},
		{J: 2, A1: 1, A2: 2, Pairs: 2},
	}
	if len(stats) != len(want) {
		t.Fatalf("stats = %+v", stats)
	}
	for i := range want {
		if stats[i] != want[i] {
			t.Fatalf("stat %d = %+v, want %+v", i, stats[i], want[i])
		}
	}
	if sumPairs(stats) != 4 {
		t.Fatalf("Σ pairs = %d, want 4", sumPairs(stats))
	}
}

// sumPairs adds up the Pairs column, which must equal the join's output
// size m.
func sumPairs(stats []JoinStat) uint64 {
	var m uint64
	for _, s := range stats {
		m += s.Pairs
	}
	return m
}

// uniformKeys draws n keys uniformly from [0, keys).
func uniformKeys(rng *rand.Rand, n, keys int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Intn(keys))
	}
	return out
}

func TestJoinGroupStatsMatchesJoinSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		t1 := rowsOf(uniformKeys(rng, 40+rng.Intn(40), 10), 1)
		t2 := rowsOf(uniformKeys(rng, 40+rng.Intn(40), 10), 2)
		stats := JoinGroupStats(plainCfg(), t1, t2)
		m := core.OutputSize(plainCfg(), t1, t2)
		if int(sumPairs(stats)) != m {
			t.Fatalf("trial %d: Σ pairs = %d, join m = %d", trial, sumPairs(stats), m)
		}
		for i := 1; i < len(stats); i++ {
			if stats[i-1].J >= stats[i].J {
				t.Fatal("stats not sorted by key")
			}
		}
	}
}

func TestJoinGroupStatsEmptySides(t *testing.T) {
	if got := JoinGroupStats(plainCfg(), nil, rowsOf([]uint64{1}, 2)); len(got) != 0 {
		t.Fatalf("got %+v", got)
	}
	if got := JoinGroupStats(plainCfg(), rowsOf([]uint64{1}, 1), nil); len(got) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestJoinGroupStatsCheaperThanJoin(t *testing.T) {
	// One fat group: m = 50·50 = 2500 but stats touch only O(n log² n).
	t1 := rowsOf(make([]uint64, 50), 1)
	t2 := rowsOf(make([]uint64, 50), 2)
	var cStats, cJoin trace.Counter

	sp1 := memory.NewSpace(&cStats, nil)
	JoinGroupStats(&core.Config{Alloc: table.PlainAlloc(sp1)}, t1, t2)

	sp2 := memory.NewSpace(&cJoin, nil)
	core.Join(&core.Config{Alloc: table.PlainAlloc(sp2)}, t1, t2)

	if cStats.Total() >= cJoin.Total() {
		t.Fatalf("stats (%d accesses) not cheaper than full join (%d)",
			cStats.Total(), cJoin.Total())
	}
}

func TestJoinGroupStatsOblivious(t *testing.T) {
	run := func(t1, t2 []table.Row) string {
		h := trace.NewHasher()
		sp := memory.NewSpace(h, nil)
		JoinGroupStats(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
		return h.Hex()
	}
	// n1=4, n2=4, 2 joinable groups in both.
	a := run(rowsOf([]uint64{1, 1, 2, 3}, 1), rowsOf([]uint64{1, 2, 2, 9}, 2))
	b := run(rowsOf([]uint64{5, 6, 6, 6}, 1), rowsOf([]uint64{5, 5, 5, 6}, 2))
	if a != b {
		t.Fatal("JoinGroupStats trace depends on structure")
	}
}

func BenchmarkGroupBy4k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 4096)
	for i := range items {
		items[i] = Item{K: uint64(rng.Intn(100)), V: uint64(rng.Intn(1000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupBy(plainCfg(), items)
	}
}
