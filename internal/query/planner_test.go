package query

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/table"
)

// plannerCatalog builds a 3-table chain where the written join order
// (t2 then t3) is expensive and greedy should pull the small t3 first.
// Payloads contain the rekey separator and rows repeat, so the catalog
// also exercises the escape codec and the duplicate-row canonical sort.
func plannerCatalog() map[string][]table.Row {
	dup := func(j uint64, d string) table.Row { return table.Row{J: j, D: table.MustData(d)} }
	t1 := []table.Row{
		dup(1, "a+1"), dup(1, "a+1"), dup(2, "b"), dup(3, `c\3`),
	}
	var t2 []table.Row
	for i := 0; i < 6; i++ {
		t2 = append(t2, dup(uint64(i%3+1), fmt.Sprintf("p+%d", i)))
	}
	t3 := []table.Row{dup(1, "x"), dup(2, "y+z"), dup(3, "w")}
	return map[string][]table.Row{"t1": t1, "t2": t2, "t3": t3}
}

const plannerChain = "SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key) JOIN t3 USING (key)"

func registerAll(t *testing.T, e *Engine, tables map[string][]table.Row) {
	t.Helper()
	for name, rows := range tables {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGreedyReordersJoinChain: with t3 far smaller than t2, the greedy
// planner joins t3 first and the plan carries the restore permutation.
func TestGreedyReordersJoinChain(t *testing.T) {
	e := NewEngineWith(Options{CostPlan: true})
	if err := e.Register("t1", seqTable(0, 64, "a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("t2", seqTable(0, 512, "b")); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("t3", seqTable(0, 8, "c")); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(plannerChain)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := "oblivious-join(t3) → rekey → oblivious-join(t2)"
	if !strings.Contains(plan, wantOrder) {
		t.Errorf("greedy plan did not pull t3 first: %s", plan)
	}
	if !strings.Contains(plan, "restore[0 2 1]") {
		t.Errorf("plan missing restore permutation: %s", plan)
	}

	// The default planner keeps the written order and adds no restore.
	e2 := NewEngine()
	if err := e2.Register("t1", seqTable(0, 64, "a")); err != nil {
		t.Fatal(err)
	}
	if err := e2.Register("t2", seqTable(0, 512, "b")); err != nil {
		t.Fatal(err)
	}
	if err := e2.Register("t3", seqTable(0, 8, "c")); err != nil {
		t.Fatal(err)
	}
	plan2, err := e2.Explain(plannerChain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2, "oblivious-join(t2) → rekey → oblivious-join(t3)") ||
		strings.Contains(plan2, "restore") || strings.Contains(plan2, "canonicalize") {
		t.Errorf("default plan changed: %s", plan2)
	}
}

// runNoReorder executes the chain with the written-order cost plan
// (canonicalized baseline) — the byte-identity reference for greedy.
func runNoReorder(t *testing.T, o Options, tables map[string][]table.Row, sql string) *Result {
	t.Helper()
	e := NewEngineWith(o)
	registerAll(t, e, tables)
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlanCfg(q, func(name string) bool { _, ok := e.tables[name]; return ok },
		PlanConfig{CostPlan: true, NoReorder: true, Card: tablesCard(e.tables), Opts: o})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderPlan(plan), "oblivious-join(t2) → rekey → oblivious-join(t3) → canonicalize") {
		t.Fatalf("NoReorder plan not written-order+canonicalize: %s", RenderPlan(plan))
	}
	pipeline, err := lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	var cipher *crypto.Cipher
	if o.Encrypted {
		if cipher, _, err = crypto.NewRandom(); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := Run(context.Background(), o, cipher, e.tables, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGreedyByteIdentity: the greedy-ordered plan and the written-order
// canonicalized plan produce byte-identical results — with duplicate
// rows and separator bytes in payloads, on the plain and the sealed
// store — and both hold exactly the default plan's row
// multiset.
func TestGreedyByteIdentity(t *testing.T) {
	tables := plannerCatalog()
	for name, o := range map[string]Options{
		"plain":  {},
		"sealed": {Encrypted: true},
	} {
		t.Run(name, func(t *testing.T) {
			greedyOpts := o
			greedyOpts.CostPlan = true
			eg := NewEngineWith(greedyOpts)
			registerAll(t, eg, tables)
			greedy, err := eg.Query(plannerChain)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(mustExplain(t, eg, plannerChain), "oblivious-join(t3) → rekey → oblivious-join(t2)") {
				t.Fatalf("catalog did not trigger reorder: %s", mustExplain(t, eg, plannerChain))
			}

			written := runNoReorder(t, greedyOpts, tables, plannerChain)
			if !reflect.DeepEqual(greedy.Rows, written.Rows) {
				t.Errorf("greedy and written-order results differ:\ngreedy:  %v\nwritten: %v",
					greedy.Rows, written.Rows)
			}

			ed := NewEngineWith(o)
			registerAll(t, ed, tables)
			def, err := ed.Query(plannerChain)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowMultiset(greedy), rowMultiset(def); !reflect.DeepEqual(got, want) {
				t.Errorf("greedy result is not the default plan's multiset:\ngreedy:  %v\ndefault: %v", got, want)
			}
		})
	}
}

// TestGreedySkewedStarComparators: on a skewed star (t1 256 keys, t2
// and t3 fanning each key out 8×, t4 only 16 keys) the written order
// materializes the fan-out before t4 shrinks it. The greedy planner
// pulls t4 forward, returns the same rows, and saves 2.5× on the 3-way
// chain and 11× on the 4-way one. Comparator counts are functions of
// the public sizes alone, so they are pinned exactly.
func TestGreedySkewedStarComparators(t *testing.T) {
	mk := func(n, mod int, tag byte) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{J: uint64(i % mod), D: table.MustData(fmt.Sprintf("%c%d", tag, i%10))}
		}
		return rows
	}
	tables := map[string][]table.Row{
		"t1": mk(256, 256, 'a'),
		"t2": mk(2048, 256, 'b'),
		"t3": mk(2048, 256, 'c'),
		"t4": mk(16, 16, 'd'),
	}
	for _, tc := range []struct {
		sql             string
		greedyOrder     string
		rows            int
		written, greedy uint64
	}{
		{"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key) JOIN t4 USING (key)",
			"oblivious-join(t4) → rekey → oblivious-join(t2)", 128, 560160, 223104},
		{"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key) JOIN t3 USING (key) JOIN t4 USING (key)",
			"oblivious-join(t4) → rekey → oblivious-join(t2) → rekey → oblivious-join(t3)", 1024, 5890688, 515200},
	} {
		run := func(costPlan bool) (*Result, *Engine) {
			e := NewEngineWith(Options{CostPlan: costPlan, CollectStats: true})
			registerAll(t, e, tables)
			res, err := e.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			return res, e
		}
		wr, we := run(false)
		gr, ge := run(true)
		if !strings.Contains(mustExplain(t, ge, tc.sql), tc.greedyOrder) {
			t.Errorf("greedy plan lacks %q: %s", tc.greedyOrder, mustExplain(t, ge, tc.sql))
		}
		if len(wr.Rows) != tc.rows || !reflect.DeepEqual(rowMultiset(wr), rowMultiset(gr)) {
			t.Errorf("%d written rows, %d greedy rows, want %d equal ones", len(wr.Rows), len(gr.Rows), tc.rows)
		}
		if w, g := we.LastStats().Comparators, ge.LastStats().Comparators; w != tc.written || g != tc.greedy {
			t.Errorf("comparators written %d greedy %d, want %d and %d", w, g, tc.written, tc.greedy)
		}
	}
}

func mustExplain(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	s, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rowMultiset(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// TestPlanContentIndependence: two databases with identical public
// sizes (same key multisets, different payloads) must produce the
// identical plan and the identical access-pattern trace hash — the
// ordering decision may read cardinalities, never contents.
func TestPlanContentIndependence(t *testing.T) {
	build := func(tag string) map[string][]table.Row {
		mk := func(keys []uint64) []table.Row {
			rows := make([]table.Row, len(keys))
			for i, j := range keys {
				rows[i] = table.Row{J: j, D: table.MustData(fmt.Sprintf("%s%d", tag, i))}
			}
			return rows
		}
		return map[string][]table.Row{
			"t1": mk([]uint64{1, 1, 2, 3}),
			"t2": mk([]uint64{1, 2, 3, 1, 2, 3}),
			"t3": mk([]uint64{1, 2, 3}),
		}
	}
	o := Options{CostPlan: true, TraceHash: true}
	run := func(tag string) (string, *Result, *PlanStats) {
		e := NewEngineWith(o)
		registerAll(t, e, build(tag))
		plan := mustExplain(t, e, plannerChain)
		res, err := e.Query(plannerChain)
		if err != nil {
			t.Fatal(err)
		}
		return plan, res, e.LastStats()
	}
	planX, resX, psX := run("x")
	planY, resY, psY := run("y")
	if planX != planY {
		t.Errorf("plans diverged on contents:\n%s\n%s", planX, planY)
	}
	if psX.TraceHash != psY.TraceHash {
		t.Errorf("trace hashes diverged on contents: %x vs %x", psX.TraceHash, psY.TraceHash)
	}
	if reflect.DeepEqual(resX.Rows, resY.Rows) {
		t.Error("distinct contents produced identical results — fixture is degenerate")
	}
}

// TestCostPlanOtherShapes: cost mode must not disturb non-chain query
// shapes — results match the default planner's for filters, semijoin
// pushdown, group-by fast path and single joins.
func TestCostPlanOtherShapes(t *testing.T) {
	tables := plannerCatalog()
	tables["u"] = []table.Row{{J: 1, D: table.MustData("v")}, {J: 3, D: table.MustData("v")}}
	queries := []string{
		"SELECT key, data FROM t2 WHERE key > 1",
		"SELECT key FROM t2 WHERE key IN (SELECT key FROM u) AND key > 0",
		"SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
		"SELECT key, left.data, right.data FROM t1 JOIN t3 USING (key)",
		"SELECT DISTINCT key FROM t2 ORDER BY key",
	}
	for _, sql := range queries {
		ec := NewEngineWith(Options{CostPlan: true})
		registerAll(t, ec, tables)
		cost, err := ec.Query(sql)
		if err != nil {
			t.Fatalf("%q (cost): %v", sql, err)
		}
		ed := NewEngine()
		registerAll(t, ed, tables)
		def, err := ed.Query(sql)
		if err != nil {
			t.Fatalf("%q (default): %v", sql, err)
		}
		if !reflect.DeepEqual(rowMultiset(cost), rowMultiset(def)) {
			t.Errorf("%q: cost-plan result differs from default:\ncost:    %v\ndefault: %v",
				sql, cost.Rows, def.Rows)
		}
	}
}
