package aggregate

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// item is one (key, value) input record of GroupBy.
type item struct{ k, v uint64 }

// load and feed stand in for the executor's fill and its row feeds:
// GroupBy's items go into a fresh store with their values as decimal
// payloads, and a join aggregate's table arrives as one batch.
func load(cfg *core.Config, items []item) table.Store {
	a := cfg.Alloc(len(items))
	for i, it := range items {
		a.Set(i, table.Entry{J: it.k, D: table.MustData(strconv.FormatUint(it.v, 10))})
	}
	return a
}

type feed struct {
	rows []table.Row
	done bool
}

func (f *feed) Len() int { return len(f.rows) }

func (f *feed) Next() ([]table.Row, error) {
	if f.done || len(f.rows) == 0 {
		return nil, nil
	}
	f.done = true
	return f.rows, nil
}

func (f *feed) Close() {}

// decimal is the ValueFunc of the tests: payloads are decimal values.
func decimal(d table.Data) uint64 {
	v, _ := strconv.ParseUint(table.DataString(d), 10, 64)
	return v
}

func groupBy(cfg *core.Config, items []item) []Group {
	return GroupBy(cfg, load(cfg, items), decimal)
}

func referenceGroupBy(items []item) []Group {
	agg := map[uint64]*Group{}
	for _, it := range items {
		g, ok := agg[it.k]
		if !ok {
			g = &Group{K: it.k, Min: it.v, Max: it.v}
			agg[it.k] = g
		}
		g.Count++
		g.Sum = g.Sum.add(it.v)
		if it.v < g.Min {
			g.Min = it.v
		}
		if it.v > g.Max {
			g.Max = it.v
		}
	}
	out := make([]Group, 0, len(agg))
	for _, g := range agg {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

func sum(lo uint64) Uint128 { return Uint128{Lo: lo} }

func TestGroupByFixed(t *testing.T) {
	items := []item{
		{k: 2, v: 10}, {k: 1, v: 5}, {k: 2, v: 3}, {k: 1, v: 5}, {k: 3, v: 0},
	}
	got := groupBy(plainCfg(), items)
	want := []Group{
		{K: 1, Count: 2, Sum: sum(10), Min: 5, Max: 5},
		{K: 2, Count: 2, Sum: sum(13), Min: 3, Max: 10},
		{K: 3, Count: 1, Sum: sum(0), Min: 0, Max: 0},
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
	if got := groupBy(plainCfg(), nil); len(got) != 0 {
		t.Fatalf("GroupBy(nil) = %v", got)
	}
}

func TestGroupBySingleKey(t *testing.T) {
	got := groupBy(plainCfg(), []item{{k: 9, v: 1}, {k: 9, v: 2}, {k: 9, v: 3}})
	if len(got) != 1 || got[0] != (Group{K: 9, Count: 3, Sum: sum(6), Min: 1, Max: 3}) {
		t.Fatalf("got %+v", got)
	}
}

// maxPayload is the largest value a 16-byte decimal payload holds.
const maxPayload = 9999999999999999

func TestGroupByProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 120 {
			raw = raw[:120]
		}
		items := make([]item, len(raw))
		for i, r := range raw {
			items[i] = item{k: uint64(r % 16), v: uint64(r >> 4)}
		}
		got := groupBy(plainCfg(), items)
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
	run := func(items []item) string {
		h := trace.NewHasher()
		sp := memory.NewSpace(h, nil)
		groupBy(&core.Config{Alloc: table.PlainAlloc(sp)}, items)
		return h.Hex()
	}
	a := run([]item{{1, 1}, {1, 2}, {2, 3}, {2, 4}}) // 2 groups of 2
	b := run([]item{{7, 9}, {8, 8}, {8, 7}, {8, 6}}) // groups of 1 and 3
	if a != b {
		t.Fatal("GroupBy trace depends on grouping structure")
	}
}

func TestGroupByMinMaxExtremes(t *testing.T) {
	got := groupBy(plainCfg(), []item{{k: 1, v: maxPayload}, {k: 1, v: 0}})
	if got[0].Min != 0 || got[0].Max != maxPayload {
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

func joinStats(t *testing.T, cfg *core.Config, rows1, rows2 []table.Row) []JoinStat {
	t.Helper()
	stats, err := JoinGroupStats(cfg, &feed{rows: rows1}, &feed{rows: rows2})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestJoinGroupStatsFixed(t *testing.T) {
	t1 := rowsOf([]uint64{1, 1, 2, 3}, 1) // groups: 1→2 rows, 2→1, 3→1
	t2 := rowsOf([]uint64{1, 2, 2, 9}, 2) // groups: 1→1, 2→2, 9→1
	stats := joinStats(t, plainCfg(), t1, t2)
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
		stats := joinStats(t, plainCfg(), t1, t2)
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
	if got := joinStats(t, plainCfg(), nil, rowsOf([]uint64{1}, 2)); len(got) != 0 {
		t.Fatalf("got %+v", got)
	}
	if got := joinStats(t, plainCfg(), rowsOf([]uint64{1}, 1), nil); len(got) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestJoinGroupStatsCheaperThanJoin(t *testing.T) {
	// One fat group: m = 50·50 = 2500 but stats touch only O(n log² n).
	t1 := rowsOf(make([]uint64, 50), 1)
	t2 := rowsOf(make([]uint64, 50), 2)
	var cStats, cJoin trace.Counter

	sp1 := memory.NewSpace(&cStats, nil)
	joinStats(t, &core.Config{Alloc: table.PlainAlloc(sp1)}, t1, t2)

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
		joinStats(t, &core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
		return h.Hex()
	}
	// n1=4, n2=4, 2 joinable groups in both.
	a := run(rowsOf([]uint64{1, 1, 2, 3}, 1), rowsOf([]uint64{1, 2, 2, 9}, 2))
	b := run(rowsOf([]uint64{5, 6, 6, 6}, 1), rowsOf([]uint64{5, 5, 5, 6}, 2))
	if a != b {
		t.Fatal("JoinGroupStats trace depends on structure")
	}
}

// TestAggregatesReleaseTheirStores: once an aggregate has read its
// output, nothing it allocated stays charged to the run's gauge.
func TestAggregatesReleaseTheirStores(t *testing.T) {
	for name, run := range map[string]func(cfg *core.Config){
		"group-by": func(cfg *core.Config) { groupBy(cfg, []item{{1, 1}, {2, 2}, {1, 3}}) },
		"join-group-stats": func(cfg *core.Config) {
			joinStats(t, cfg, rowsOf([]uint64{1, 2}, 1), rowsOf([]uint64{2, 3}, 2))
		},
		"join-group-sums": func(cfg *core.Config) {
			if _, err := JoinGroupSums(cfg, &feed{rows: rowsOf([]uint64{1, 2}, 1)}, &feed{rows: rowsOf([]uint64{2, 3}, 2)}, decimal); err != nil {
				t.Fatal(err)
			}
		},
	} {
		g := &table.Gauge{}
		cfg := &core.Config{Alloc: table.TrackedAlloc(table.PlainAlloc(memory.NewSpace(nil, nil)), g), Mem: g}
		run(cfg)
		// Nothing outstanding: a fresh charge of q lifts the peak to
		// exactly q when the peak so far is below it.
		q := g.Peak() + 1
		g.Charge(q)
		if g.Peak() != q {
			t.Errorf("%s: %d bytes still charged after the output was read", name, g.Peak()-q)
		}
	}
}

func BenchmarkGroupBy4k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]item, 4096)
	for i := range items {
		items[i] = item{k: uint64(rng.Intn(100)), v: uint64(rng.Intn(1000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groupBy(plainCfg(), items)
	}
}
