package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/table"
)

// plannerCatalog builds a 3-table chain whose payloads contain the
// rekey separator and the escape byte, and whose rows repeat, so a
// chain over it exercises the escape codec and duplicate join output.
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

// writtenPlan builds by hand the plan of a WHERE-free JOIN ... USING
// chain in its written order — the baseline the planner is measured
// against.
func writtenPlan(t *testing.T, sql string) PlanNode {
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

// TestFanOutChainRunsAsWritten: the engine runs a JOIN ... USING chain
// exactly as written. On these fan-out catalogs the guess m̂ =
// min(n₁, n₂) is far below the real output of s1 ⋈ tiny, so a plan
// that joined tiny first on the strength of that guess would execute
// 1.9× and 9.8× the written order's comparators.
func TestFanOutChainRunsAsWritten(t *testing.T) {
	mk := func(n, k, off int, tag byte) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{J: uint64(off + i%k), D: table.MustData(fmt.Sprintf("%c%d", tag, i%10))}
		}
		return rows
	}
	const sql = "SELECT key, left.data, right.data FROM s1 JOIN big USING (key) JOIN tiny USING (key)"
	for _, c := range []struct{ s1, tiny, k int }{{256, 16, 2}, {1024, 64, 4}} {
		tables := map[string][]table.Row{
			"s1":   mk(c.s1, c.k, 0, 's'),
			"big":  mk(4096, 4096, 100000, 'b'),
			"tiny": mk(c.tiny, c.k, 0, 't'),
		}
		_, written := runPlan(t, Options{CollectStats: true}, tables, writtenPlan(t, sql))
		e := NewEngineWith(Options{CollectStats: true})
		registerAll(t, e, tables)
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
		if got := e.LastStats().Comparators; got != written.Comparators {
			t.Errorf("s1 %d, tiny %d, %d keys: plan %s executes %d comparators, written order %d",
				c.s1, c.tiny, c.k, mustExplain(t, e, sql), got, written.Comparators)
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

// TestPlanContentIndependence: two databases with identical public
// sizes (same key multisets, different payloads) must produce the
// identical plan and the identical access-pattern trace hash — the
// planner may read cardinalities, never contents.
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

// TestCostPlanOtherShapes: public sizes only order semijoins — every
// other query shape, join chains included, plans identically whatever
// the sizes (the real catalog's or all zero) and returns the reference
// executor's rows; the 3-way chain's payloads check the rekey escape
// codec against the reference's. Two semijoins run smallest sub-table
// first, and the reordered plan returns the written order's bytes.
func TestCostPlanOtherShapes(t *testing.T) {
	tables := plannerCatalog()
	tables["u"] = []table.Row{{J: 1, D: table.MustData("v")}, {J: 3, D: table.MustData("v")}}
	queries := []string{
		"SELECT key, data FROM t2 WHERE key > 1",
		"SELECT key FROM t2 WHERE key IN (SELECT key FROM u) AND key > 0",
		"SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
		"SELECT key, left.data, right.data FROM t1 JOIN t3 USING (key)",
		plannerChain,
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
