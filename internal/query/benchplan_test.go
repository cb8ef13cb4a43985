package query

import "testing"

// benchmarkPlanCases are the query shapes the repository benchmark's
// SQL workloads send (benchmarks/sql.go), each with the plan it runs at
// the workload's public table sizes. Literals are placeholders: a plan
// depends on the query shape and the public sizes, never on the values
// a literal compares against.
var benchmarkPlanCases = []struct {
	workload, shape, sql, plan string
}{
	{"sql-serve", "point",
		"SELECT key, data FROM dim WHERE key = 7 AND key < 9",
		"scan(dim) → filter[branch-free] → project"},
	{"sql-serve", "range",
		"SELECT key, data FROM mid WHERE key BETWEEN 3 AND 8 ORDER BY key LIMIT 32",
		"scan(mid) → filter[branch-free] → sort(key) → limit(32) → project"},
	{"sql-serve", "semijoin",
		"SELECT key, data FROM mid WHERE key IN (SELECT key FROM dim) AND key < 9",
		"scan(mid) → semijoin(dim) → filter[branch-free] → project"},
	{"sql-serve", "join2",
		"SELECT key, left.data, right.data FROM mid JOIN mid2 USING (key) WHERE key < 9",
		"scan(mid) → filter[branch-free] → oblivious-join(mid2) → project"},
	{"sql-serve", "joincount",
		"SELECT key, COUNT(*) FROM mid JOIN fact USING (key) WHERE key < 9 GROUP BY key",
		"scan(mid) → filter[branch-free] → join-group-stats(fact) [§7 fast path] → project"},
	{"sql-serve", "chain3",
		"SELECT key, left.data, right.data FROM dim JOIN mid USING (key) JOIN fact USING (key) WHERE key < 9",
		"scan(dim) → filter[branch-free] → oblivious-join(mid) → rekey → oblivious-join(fact) → project"},
	{"sql-serve", "distinct",
		"SELECT DISTINCT key, data FROM fact WHERE key < 9",
		"scan(fact) → filter[branch-free] → distinct[oblivious] → project"},
	{"sql-durable-rw", "join2",
		"SELECT key, left.data, right.data FROM a JOIN b USING (key) WHERE key < 9",
		"scan(a) → filter[branch-free] → oblivious-join(b) → project"},
	{"sql-durable-rw", "joincount",
		"SELECT key, COUNT(*) FROM a JOIN b USING (key) WHERE key < 9 GROUP BY key",
		"scan(a) → filter[branch-free] → join-group-stats(b) [§7 fast path] → project"},
	{"sql-durable-rw", "range",
		"SELECT key, data FROM a WHERE key BETWEEN 3 AND 8",
		"scan(a) → filter[branch-free] → project"},
}

// TestBenchmarkPlansPinned pins the plan of every query shape the SQL
// workloads run, at their public sizes (sql-serve: dim 64, mid and mid2
// 512, fact 2048; sql-durable-rw: a and b 128, each client's hot table
// 64). Planning reads public sizes, so a planner change that would
// alter what the benchmark executes shows here first.
func TestBenchmarkPlansPinned(t *testing.T) {
	workloads := map[string]StaticCard{
		"sql-serve":      {"dim": 64, "mid": 512, "mid2": 512, "fact": 2048},
		"sql-durable-rw": {"a": 128, "b": 128, "hot0": 64, "hot1": 64},
	}
	for _, c := range benchmarkPlanCases {
		card := workloads[c.workload]
		q, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.shape, err)
		}
		has := func(name string) bool { _, ok := card[name]; return ok }
		plan, err := BuildPlanCfg(q, has, PlanConfig{Card: card})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.shape, err)
		}
		if got := RenderPlan(plan); got != c.plan {
			t.Errorf("%s/%s plan:\n got %s\nwant %s", c.workload, c.shape, got, c.plan)
		}
	}
}
