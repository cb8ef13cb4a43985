package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
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

// TestGreedyReordersJoinChain: with t3 far smaller than t2, the planner
// joins t3 first and the plan carries the restore permutation; with the
// sizes swapped the written order is already the cheapest, and the plan
// is the written order with no restore stage.
func TestGreedyReordersJoinChain(t *testing.T) {
	explain := func(n2, n3 int) string {
		e := NewEngine()
		registerAll(t, e, map[string][]table.Row{
			"t1": seqTable(0, 64, "a"),
			"t2": seqTable(0, n2, "b"),
			"t3": seqTable(0, n3, "c"),
		})
		return mustExplain(t, e, plannerChain)
	}
	plan := explain(512, 8)
	if !strings.Contains(plan, "oblivious-join(t3) → rekey → oblivious-join(t2)") {
		t.Errorf("greedy plan did not pull t3 first: %s", plan)
	}
	if !strings.Contains(plan, "restore[0 2 1]") {
		t.Errorf("plan missing restore permutation: %s", plan)
	}

	plan = explain(8, 512)
	if !strings.Contains(plan, "oblivious-join(t2) → rekey → oblivious-join(t3)") ||
		strings.Contains(plan, "restore") || strings.Contains(plan, "canonicalize") {
		t.Errorf("written-order-cheapest plan changed: %s", plan)
	}
}

// writtenPlan builds by hand the plan of a WHERE-free JOIN ... USING
// chain in its written order — the baseline the planner is measured
// against. With restore set the chain ends in the identity Restore
// (canonical sort only), whose output the reordered plan must equal
// byte for byte.
func writtenPlan(t *testing.T, sql string, restore bool) PlanNode {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != nil || q.GroupBy || q.OrderBy || q.Limit >= 0 {
		t.Fatalf("writtenPlan covers plain join chains only: %s", sql)
	}
	var n PlanNode = ScanNode{Table: q.From}
	for i, tbl := range q.Joins {
		if i > 0 {
			n = RekeyNode{In: n, First: i == 1}
		}
		n = JoinNode{In: n, Table: tbl}
	}
	if restore {
		perm := make([]int, len(q.Joins)+1)
		for i := range perm {
			perm[i] = i
		}
		n = RestoreNode{In: n, Perm: perm}
	}
	return ProjectNode{In: n, Items: expandStar(q)}
}

// runPlan executes a hand-built plan over tables under o.
func runPlan(t *testing.T, o Options, tables map[string][]table.Row, plan PlanNode) (*Result, *PlanStats) {
	t.Helper()
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
	res, ps, err := Run(context.Background(), o, cipher, tables, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	return res, ps
}

// TestGreedyByteIdentity: the greedy-ordered plan and the written-order
// canonicalized plan produce byte-identical results — with duplicate
// rows and separator bytes in payloads, on the plain and the sealed
// store — and both hold exactly the written-order chain's row
// multiset.
func TestGreedyByteIdentity(t *testing.T) {
	tables := plannerCatalog()
	for name, o := range map[string]Options{
		"plain":  {},
		"sealed": {Encrypted: true},
	} {
		t.Run(name, func(t *testing.T) {
			eg := NewEngineWith(o)
			registerAll(t, eg, tables)
			greedy, err := eg.Query(plannerChain)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(mustExplain(t, eg, plannerChain), "oblivious-join(t3) → rekey → oblivious-join(t2)") {
				t.Fatalf("catalog did not trigger reorder: %s", mustExplain(t, eg, plannerChain))
			}

			written, _ := runPlan(t, o, tables, writtenPlan(t, plannerChain, true))
			if !reflect.DeepEqual(greedy.Rows, written.Rows) {
				t.Errorf("greedy and written-order results differ:\ngreedy:  %v\nwritten: %v",
					greedy.Rows, written.Rows)
			}

			raw, _ := runPlan(t, o, tables, writtenPlan(t, plannerChain, false))
			if got, want := multiset(greedy.Rows), multiset(raw.Rows); !reflect.DeepEqual(got, want) {
				t.Errorf("greedy result is not the written chain's multiset:\ngreedy:  %v\nwritten: %v", got, want)
			}
		})
	}
}

// TestGreedySkewedStarComparators: on a skewed star (t1 256 keys, t2
// and t3 fanning each key out 8×, t4 only 16 keys) the written order
// materializes the fan-out before t4 shrinks it. The planner pulls t4
// forward, returns the same rows, and saves 2.5× on the 3-way chain
// and 11× on the 4-way one. Comparator counts are functions of the
// public sizes alone, so they are pinned exactly.
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
		wr, ws := runPlan(t, Options{CollectStats: true}, tables, writtenPlan(t, tc.sql, false))
		ge := NewEngineWith(Options{CollectStats: true})
		registerAll(t, ge, tables)
		gr, err := ge.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(mustExplain(t, ge, tc.sql), tc.greedyOrder) {
			t.Errorf("greedy plan lacks %q: %s", tc.greedyOrder, mustExplain(t, ge, tc.sql))
		}
		if len(wr.Rows) != tc.rows || !reflect.DeepEqual(multiset(wr.Rows), multiset(gr.Rows)) {
			t.Errorf("%d written rows, %d greedy rows, want %d equal ones", len(wr.Rows), len(gr.Rows), tc.rows)
		}
		if w, g := ws.Comparators, ge.LastStats().Comparators; w != tc.written || g != tc.greedy {
			t.Errorf("comparators written %d greedy %d, want %d and %d", w, g, tc.written, tc.greedy)
		}
	}
}

// TestRestoreGuardNeverCostsMore: over random public sizes of 3- and
// 4-table chains, the planner's plan never models more comparators
// than the written order run without a restore stage. The planner
// reorders only when greedy order plus restore(m) is strictly cheaper,
// so the written order is the ceiling; both outcomes must occur, or
// the draw tests nothing.
func TestRestoreGuardNeverCostsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"t1", "t2", "t3", "t4"}
	reordered, kept := 0, 0
	for i := 0; i < 60; i++ {
		k := 3 + i%2
		card := StaticCard{}
		sql := "SELECT key, left.data, right.data FROM t1"
		for j, name := range names[:k] {
			card[name] = 1 + rng.Intn(4096)
			if j > 0 {
				sql += " JOIN " + name + " USING (key)"
			}
		}
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		has := func(name string) bool { _, ok := card[name]; return ok }
		plan, err := BuildPlanCfg(q, has, PlanConfig{Card: card})
		if err != nil {
			t.Fatal(err)
		}
		got := ComputePlanCost(plan, card, Options{}).Comparators
		written := ComputePlanCost(writtenPlan(t, sql, false), card, Options{}).Comparators
		if got > written {
			t.Fatalf("sizes %v: plan %s models %d comparators, written order %d",
				card, RenderPlan(plan), got, written)
		}
		if strings.Contains(RenderPlan(plan), "restore") {
			reordered++
		} else {
			kept++
			if RenderPlan(plan) != RenderPlan(writtenPlan(t, sql, false)) {
				t.Fatalf("sizes %v: unreordered plan %s is not the written order", card, RenderPlan(plan))
			}
		}
	}
	if reordered == 0 || kept == 0 {
		t.Fatalf("%d draws reordered, %d kept the written order: want both", reordered, kept)
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
	o := Options{TraceHash: true}
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

// TestCostPlanOtherShapes: besides JOIN chains, public sizes only
// order semijoins — every other query shape plans identically whatever
// the sizes (the real catalog's or all zero) and returns the reference
// executor's rows. Two semijoins run smallest sub-table first, and the
// reordered plan returns the written order's bytes.
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
	e := NewEngine()
	registerAll(t, e, tables)
	has := func(name string) bool { _, ok := tables[name]; return ok }
	for _, sql := range queries {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		sized, err := BuildPlanCfg(q, has, PlanConfig{Card: tablesCard(tables)})
		if err != nil {
			t.Fatal(err)
		}
		unsized, err := BuildPlanCfg(q, has, PlanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if RenderPlan(sized) != RenderPlan(unsized) {
			t.Errorf("%q: plan depends on sizes:\n%s\n%s", sql, RenderPlan(sized), RenderPlan(unsized))
		}
		res, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want, err := refQuery(tables, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(multiset(res.Rows), multiset(want)) {
			t.Errorf("%q: rows %v, reference %v", sql, res.Rows, want)
		}
	}

	q, err := Parse("SELECT key, data FROM t2 WHERE key IN (SELECT key FROM t1) AND key IN (SELECT key FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	sized, err := BuildPlanCfg(q, has, PlanConfig{Card: tablesCard(tables)})
	if err != nil {
		t.Fatal(err)
	}
	written, err := BuildPlanCfg(q, has, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RenderPlan(sized), "scan(t2) → semijoin(u) → semijoin(t1) → project"; got != want {
		t.Fatalf("semijoin order: got %s, want %s", got, want)
	}
	sres, _ := runPlan(t, Options{}, tables, sized)
	wres, _ := runPlan(t, Options{}, tables, written)
	if !reflect.DeepEqual(sres.Rows, wres.Rows) || len(sres.Rows) == 0 {
		t.Fatalf("reordered semijoins return %v, written order %v", sres.Rows, wres.Rows)
	}
}
