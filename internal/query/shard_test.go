package query

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oblivjoin/internal/table"
)

// shardQueries exercise the sharded join inside full pipelines: a bare
// join, a join feeding filter/sort (pre-join scan streams, post-join
// rekey streams), a two-join chain (rekey between joins) and a
// GROUP BY consumer.
var shardQueries = []string{
	"SELECT key, left.data, right.data FROM l JOIN r USING (key)",
	"SELECT key, right.data FROM l JOIN r USING (key) WHERE key > 3 ORDER BY key",
	"SELECT key, left.data, right.data FROM l JOIN r USING (key) JOIN w USING (key)",
	"SELECT key, COUNT(*) FROM l JOIN r USING (key) GROUP BY key",
}

// shardCatalog builds join inputs with duplicate keys: n left rows, n/2
// right rows (min 1), and a small third table for the join chain.
func shardCatalog(n int) map[string][]table.Row {
	mod := uint64(n/3 + 1)
	mk := func(count int, tag string) []table.Row {
		rows := make([]table.Row, count)
		for i := range rows {
			rows[i] = table.Row{J: uint64(i*2654435761) % mod, D: table.MustData(fmt.Sprintf("%s%d", tag, i))}
		}
		return rows
	}
	return map[string][]table.Row{
		"l": mk(n, "l"),
		"r": mk(max(n/2, 1), "r"),
		"w": mk(max(n/4, 1), "w"),
	}
}

func shardQuery(t *testing.T, o Options, sql string, tables map[string][]table.Row) (*Result, *PlanStats) {
	t.Helper()
	e := NewEngineWith(o)
	for name, rows := range tables {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q) [shards=%d]: %v", sql, o.Shards, err)
	}
	return res, e.LastStats()
}

// TestShardedMatchesUnsharded is shard-count invariance end to end:
// for every store mode, shard count and boundary input size, a sharded
// query returns exactly the unsharded result, and its trace hash and
// comparator count are reproducible — identical across repeats and
// worker counts at the same shard count.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, mode := range storeModes {
		for _, s := range []int{2, 4, 7} {
			sizes := []int{1, s - 1, s*16 - 1, s*16 + 1}
			for _, n := range sizes {
				if n < 1 {
					continue
				}
				tables := shardCatalog(n)
				for _, sql := range shardQueries {
					label := fmt.Sprintf("%s/s=%d/n=%d/%q", mode.name, s, n, sql)

					var ref Options
					mode.set(&ref)
					ref.TraceHash = true
					base, _ := shardQuery(t, ref, sql, tables)

					o := ref
					o.Shards = s
					o.Workers = 4
					res, ps := shardQuery(t, o, sql, tables)
					if !reflect.DeepEqual(res, base) {
						t.Fatalf("%s: sharded result diverges from unsharded:\n%v\nvs\n%v", label, res.Rows, base.Rows)
					}

					// Reproducibility at this shard count: different
					// worker split, same composed hash and counts.
					o2 := o
					o2.Workers = 1
					res2, ps2 := shardQuery(t, o2, sql, tables)
					if !reflect.DeepEqual(res2, res) {
						t.Fatalf("%s: sharded result varies with workers", label)
					}
					if ps.TraceHash == "" || ps.TraceHash != ps2.TraceHash {
						t.Fatalf("%s: composed trace hash varies with workers (%s vs %s)", label, ps.TraceHash, ps2.TraceHash)
					}
					if ps.Comparators != ps2.Comparators {
						t.Fatalf("%s: comparators vary with workers (%d vs %d)", label, ps.Comparators, ps2.Comparators)
					}
					if ps.PeakBytes != ps2.PeakBytes {
						t.Fatalf("%s: peak bytes vary with workers (%d vs %d)", label, ps.PeakBytes, ps2.PeakBytes)
					}
				}
			}
		}
	}
}

// TestShardedLargeInput runs the full operator chain at a many-batch
// size in plain mode (the heavier modes are covered at boundary sizes
// above).
func TestShardedLargeInput(t *testing.T) {
	n := 4096
	if testing.Short() {
		n = 512
	}
	tables := shardCatalog(n)
	const sql = "SELECT key, right.data FROM l JOIN r USING (key) WHERE key > 3 ORDER BY key"
	base, _ := shardQuery(t, Options{TraceHash: true}, sql, tables)
	res, ps := shardQuery(t, Options{TraceHash: true, Shards: 4, Workers: 4}, sql, tables)
	if !reflect.DeepEqual(res, base) {
		t.Fatalf("sharded result diverges at n=%d", n)
	}
	if ps.TraceHash == "" {
		t.Fatal("no composed trace hash collected")
	}
}

// TestShardedTraceDependsOnlyOnSizes: same sizes and key structure,
// different payload contents — identical composed hashes.
func TestShardedTraceDependsOnlyOnSizes(t *testing.T) {
	mk := func(tag string) map[string][]table.Row {
		tables := map[string][]table.Row{}
		for name, rows := range shardCatalog(300) {
			out := make([]table.Row, len(rows))
			for i, r := range rows {
				out[i] = table.Row{J: r.J, D: table.MustData(fmt.Sprintf("%s%d", tag, i))}
			}
			tables[name] = out
		}
		return tables
	}
	o := Options{TraceHash: true, Shards: 4, Workers: 2}
	const sql = "SELECT key, right.data FROM l JOIN r USING (key) WHERE key > 3 ORDER BY key"
	_, ps1 := shardQuery(t, o, sql, mk("x"))
	_, ps2 := shardQuery(t, o, sql, mk("YY"))
	if ps1.TraceHash != ps2.TraceHash {
		t.Fatal("composed trace hash depends on table contents")
	}
}

// TestShardedSpillUnderBudget: the sharded path composes with the
// memory budget — per-unit budget shares force spilling, results stay
// exact, and no spill file outlives the run.
func TestShardedSpillUnderBudget(t *testing.T) {
	tables := shardCatalog(600)
	const sql = "SELECT key, left.data, right.data FROM l JOIN r USING (key)"
	base, _ := shardQuery(t, Options{}, sql, tables)
	dir := t.TempDir()
	o := Options{Shards: 4, Workers: 4, CollectStats: true, MemBudget: 16 << 10, SpillDir: dir}
	res, ps := shardQuery(t, o, sql, tables)
	if !reflect.DeepEqual(res, base) {
		t.Fatal("sharded result diverges under a memory budget")
	}
	if ps.SpillCount == 0 {
		t.Fatal("budget did not force any spills in the sharded run")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files survive the run", len(ents))
	}
}

// TestShardedCancellationMidShard cancels a sharded run while its
// shard units are executing: the run returns the typed sentinel, every
// shard goroutine is joined (no leak), and an identical follow-up
// query on the same tables succeeds — one aborted run poisons nothing.
func TestShardedCancellationMidShard(t *testing.T) {
	tables := shardCatalog(20000)
	q, err := Parse("SELECT key, left.data, right.data FROM l JOIN r USING (key)")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{})
	for name, rows := range tables {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Shards: 4, Workers: 4}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Long enough for the shard units to be mid-join at n=20000,
		// short enough to abort well before completion.
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, _, err = Run(ctx, o, nil, tables, pipeline)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled sharded run returned %v, want ErrCanceled", err)
	}

	// All unit goroutines must be joined before Run returns; allow the
	// runtime a moment to retire exiting goroutines (worker pools are
	// process-wide and excluded by measuring against `before`).
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked by cancelled sharded run: %d before, %d after", before, g)
	}

	if _, _, err := Run(context.Background(), o, nil, tables, pipeline); err != nil {
		t.Fatalf("follow-up sharded run after a cancellation failed: %v", err)
	}
}
