package query

import (
	"strings"
	"testing"

	"oblivjoin/internal/table"
)

// feedCard is a test Card with explicit join-size feedback, keyed by
// the execution-order left table list.
type feedCard struct {
	tables map[string][]table.Row
	feed   map[string]int
}

func (c feedCard) Rows(t string) (int, bool) {
	rows, ok := c.tables[t]
	return len(rows), ok
}

func (c feedCard) JoinRows(left []string, right string) (int, bool) {
	m, ok := c.feed[strings.Join(left, ",")+"→"+right]
	return m, ok
}

// seqTable builds count rows with keys first..first+count-1.
func seqTable(first, count int, tag string) []table.Row {
	rows := make([]table.Row, count)
	for i := range rows {
		rows[i] = table.Row{J: uint64(first + i), D: table.MustData(tag)}
	}
	return rows
}

// TestJoinCostModelExact pins the cost model against the instrumented
// executor: with the true join output size fed in, modeled comparator
// and route-op counts must equal the observed counts exactly, in every
// execution configuration.
func TestJoinCostModelExact(t *testing.T) {
	// t1 keys 0..19, t2 keys 5..16 → every t2 key matches once: m = 12.
	tables := map[string][]table.Row{
		"t1": seqTable(0, 20, "a"),
		"t2": seqTable(5, 12, "b"),
	}
	card := feedCard{tables: tables, feed: map[string]int{"t1→t2": 12}}
	sql := "SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key)"

	for name, opts := range map[string]Options{
		"bitonic": {CollectStats: true},
		"sealed":  {CollectStats: true, Encrypted: true},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngineWith(opts)
			for tn, rows := range tables {
				if err := e.Register(tn, rows); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Query(sql); err != nil {
				t.Fatal(err)
			}
			ps := e.LastStats()

			q, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := BuildPlan(q, func(string) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			rep := ComputePlanCost(plan, card, opts)
			if rep.Estimated {
				t.Fatalf("report estimated with full feedback: %+v", rep)
			}
			if rep.Comparators != ps.Comparators {
				t.Errorf("modeled comparators = %d, observed = %d", rep.Comparators, ps.Comparators)
			}
			if rep.RouteOps != ps.RouteOps {
				t.Errorf("modeled route ops = %d, observed = %d", rep.RouteOps, ps.RouteOps)
			}
			if rep.Rows != 12 {
				t.Errorf("modeled rows = %d, want 12", rep.Rows)
			}
		})
	}
}

// TestSingleSortStagesExact pins the one-sort operators (GROUP BY,
// DISTINCT, ORDER BY, semijoin) against observed comparator counts —
// their comparator model is exact even where row counts are estimates.
func TestSingleSortStagesExact(t *testing.T) {
	tables := map[string][]table.Row{
		"t": seqTable(0, 33, "v"),
		"u": seqTable(10, 9, "w"),
	}
	for _, sql := range []string{
		"SELECT key, COUNT(*) FROM t GROUP BY key",
		"SELECT DISTINCT key, data FROM t",
		"SELECT key FROM t ORDER BY key",
		"SELECT key FROM t WHERE key IN (SELECT key FROM u)",
	} {
		e := NewEngineWith(Options{CollectStats: true})
		for tn, rows := range tables {
			if err := e.Register(tn, rows); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Query(sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		ps := e.LastStats()
		rep, err := e.PlanCost(sql)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Comparators != ps.Comparators {
			t.Errorf("%q: modeled comparators = %d, observed = %d", sql, rep.Comparators, ps.Comparators)
		}
	}
}

// TestDistributeRouteOpsSmall checks the closed-form route-op count on
// hand-verifiable sizes.
func TestDistributeRouteOpsSmall(t *testing.T) {
	if got := DistributeRouteOps(0); got != 0 {
		t.Errorf("l=0: %d", got)
	}
	if got := DistributeRouteOps(1); got != 0 {
		t.Errorf("l=1: %d", got)
	}
	// l=2: j=1 wave, hi=0 → one op.
	if got := DistributeRouteOps(2); got != 1 {
		t.Errorf("l=2: %d, want 1", got)
	}
	// Monotone in l.
	prev := uint64(0)
	for l := 1; l <= 64; l++ {
		c := DistributeRouteOps(l)
		if c < prev {
			t.Fatalf("route ops not monotone at l=%d: %d < %d", l, c, prev)
		}
		prev = c
	}
}

// TestRenderPlanCost smoke-tests the EXPLAIN cost table.
func TestRenderPlanCost(t *testing.T) {
	e := NewEngineWith(Options{CostPlan: true})
	if err := e.Register("t1", seqTable(0, 8, "a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("t2", seqTable(0, 4, "b")); err != nil {
		t.Fatal(err)
	}
	out, err := e.ExplainCost("SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"comparators", "route-ops", "store-bytes", "total (modeled)", "oblivious-join(t2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainCost output missing %q:\n%s", want, out)
		}
	}
}

// TestScanColumnAnnotation: key-only pipelines annotate the scan; any
// payload consumer suppresses the annotation.
func TestScanColumnAnnotation(t *testing.T) {
	e := NewEngineWith(Options{CostPlan: true})
	if err := e.Register("t", seqTable(0, 8, "a")); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain("SELECT key, COUNT(*) FROM t GROUP BY key")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "scan(t cols=key)") {
		t.Errorf("key-only plan not annotated: %s", plan)
	}
	plan, err = e.Explain("SELECT key, data FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "cols=") {
		t.Errorf("payload-consuming plan annotated: %s", plan)
	}
}
