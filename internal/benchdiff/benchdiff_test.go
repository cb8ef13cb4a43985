package benchdiff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(n int, query string, seq, par int64) Record {
	return Record{N: n, Query: query, Metrics: map[string]int64{"sequential": seq, "parallel": par}}
}

// TestRegressionGate is the CI acceptance criterion: a benchmark
// record regressing >25% against the committed baseline fails the
// comparison; anything at or below the threshold passes.
func TestRegressionGate(t *testing.T) {
	baseline := []Record{
		rec(16384, "", 1_000_000_000, 400_000_000),
		rec(65536, "", 5_000_000_000, 2_000_000_000),
	}

	// +30% sequential wall time at n=16384: gate fails.
	fresh := []Record{
		rec(16384, "", 1_300_000_000, 400_000_000),
		rec(65536, "", 5_000_000_000, 2_000_000_000),
	}
	rep := Compare(baseline, fresh, 1.25)
	if !rep.Failed() || len(rep.Regressions) != 1 {
		t.Fatalf("30%% regression not flagged: %+v", rep)
	}
	r := rep.Regressions[0]
	if r.Key != "n=16384 workers=0" || r.Metric != "sequential" || r.Ratio < 1.29 || r.Ratio > 1.31 {
		t.Fatalf("regression = %+v", r)
	}
	if rep.Compared != 4 {
		t.Fatalf("Compared = %d, want 4", rep.Compared)
	}

	// Exactly +25%: within threshold, gate passes.
	fresh[0].Metrics["sequential"] = 1_250_000_000
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() {
		t.Fatalf("25%% flagged as regression: %+v", rep)
	}

	// Faster than baseline: passes.
	fresh[0].Metrics["sequential"] = 700_000_000
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() {
		t.Fatalf("improvement flagged as regression: %+v", rep)
	}
}

// TestVanishedMetricFails: a fresh record whose wall-time field
// decodes to zero (renamed JSON key, dropped instrumentation) must
// fail rather than sail under the threshold with ratio 0.
func TestVanishedMetricFails(t *testing.T) {
	baseline := []Record{rec(1024, "", 100, 100)}
	fresh := []Record{rec(1024, "", 0, 100)}
	rep := Compare(baseline, fresh, 1.25)
	if !rep.Failed() || len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "sequential (missing)" {
		t.Fatalf("vanished metric not flagged: %+v", rep)
	}
}

func TestParallelMetricGates(t *testing.T) {
	baseline := []Record{rec(1024, "", 100, 100)}
	fresh := []Record{rec(1024, "", 100, 200)}
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "parallel" {
		t.Fatalf("parallel regression not flagged: %+v", rep)
	}
}

func TestSQLRecordsMatchOnQuery(t *testing.T) {
	const q1 = "SELECT key FROM t1 JOIN t2 USING (key)"
	const q2 = "SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key"
	baseline := []Record{rec(2048, q1, 100, 100), rec(2048, q2, 100, 100)}
	// Same n, different query: must not cross-match.
	fresh := []Record{rec(2048, q1, 100, 100), rec(2048, q2, 500, 100)}
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0].Key, "GROUP BY") {
		t.Fatalf("SQL keying wrong: %+v", rep)
	}
}

func TestMissingBenchmarks(t *testing.T) {
	baseline := []Record{rec(1024, "", 100, 100), rec(2048, "", 100, 100)}
	fresh := []Record{rec(2048, "", 100, 100), rec(4096, "", 100, 100)}
	rep := Compare(baseline, fresh, 1.25)
	// A dropped benchmark fails the gate; a new one is only noted.
	if !rep.Failed() {
		t.Fatal("dropped benchmark did not fail the gate")
	}
	if len(rep.MissingInFresh) != 1 || rep.MissingInFresh[0] != "n=1024 workers=0" {
		t.Fatalf("MissingInFresh = %v", rep.MissingInFresh)
	}
	if len(rep.MissingInBaseline) != 1 || rep.MissingInBaseline[0] != "n=4096 workers=0" {
		t.Fatalf("MissingInBaseline = %v", rep.MissingInBaseline)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_join.json")
	body := `[
  {"n": 16384, "m": 16384, "workers": 8, "sequential_ns": 123456789,
   "parallel_ns": 45678901, "speedup": 2.7, "trace_events": 100,
   "trace_event_counts_equal": true, "gomaxprocs": 8}
]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].N != 16384 || recs[0].Metrics["sequential"] != 123456789 {
		t.Fatalf("Load = %+v", recs)
	}
	if recs[0].Key() != "n=16384 workers=8" {
		t.Fatalf("Key = %q", recs[0].Key())
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

// TestSealedMetricsGate: every *_ns field of a record is a gated
// metric, so a record family with several timed columns per row (one
// per store mode, say) is covered by the same comparison.
func TestSealedMetricsGate(t *testing.T) {
	body := `[
  {"n": 4096, "workers": 4,
   "plain_join_ns": 100, "sealed_join_ns": 1000, "block_join_ns": 400,
   "plain_sort_ns": 50, "sealed_sort_ns": 500, "block_sort_ns": 200}
]`
	baseline, err := Read(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := baseline[0].Key(); got != "n=4096 workers=4" {
		t.Fatalf("Key = %q", got)
	}
	fresh, _ := Read(strings.NewReader(body))
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() || rep.Compared != 6 {
		t.Fatalf("self-compare: %+v", rep)
	}
	fresh[0].Metrics["block_join"] = 600 // +50%
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "block_join" {
		t.Fatalf("sealed metric regression not flagged: %+v", rep)
	}
	delete(fresh[0].Metrics, "sealed_sort") // vanished metric
	rep = Compare(baseline, fresh, 1.25)
	found := false
	for _, r := range rep.Regressions {
		if r.Metric == "sealed_sort (missing)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("vanished sealed metric not flagged: %+v", rep)
	}
}

// TestBytesMetricsGate: *_bytes fields are gated alongside the wall
// times — a memory regression past the threshold fails, and the
// regression renders in bytes, not milliseconds.
func TestBytesMetricsGate(t *testing.T) {
	body := `[
  {"n": 16384, "workers": 4,
   "sequential_ns": 1000000, "parallel_ns": 900000,
   "total_alloc_bytes": 8000000, "peak_bytes": 4500000}
]`
	baseline, err := Read(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(baseline[0].Metrics); got != 4 {
		t.Fatalf("decoded %d metrics, want 4: %+v", got, baseline[0].Metrics)
	}
	fresh, _ := Read(strings.NewReader(body))
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() || rep.Compared != 4 {
		t.Fatalf("self-compare: %+v", rep)
	}
	fresh[0].Metrics["peak_bytes"] = 6_750_000 // +50%
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "peak_bytes" {
		t.Fatalf("bytes regression not flagged: %+v", rep)
	}
	if s := rep.Regressions[0].String(); !strings.Contains(s, "B)") || strings.Contains(s, "ms)") {
		t.Fatalf("bytes regression rendered in the wrong unit: %q", s)
	}
	delete(fresh[0].Metrics, "total_alloc_bytes") // vanished metric
	rep = Compare(baseline, fresh, 1.25)
	found := false
	for _, r := range rep.Regressions {
		if r.Metric == "total_alloc_bytes (missing)" {
			found = true
			if s := r.String(); !strings.Contains(s, "B)") {
				t.Fatalf("missing bytes metric rendered in the wrong unit: %q", s)
			}
		}
	}
	if !found {
		t.Fatalf("vanished bytes metric not flagged: %+v", rep)
	}
}

// TestComparatorMetricsGate: planner records carry exact comparator
// counts under "*_comparators" fields; they gate like any wall-time
// metric and render as plain counts, not milliseconds.
func TestComparatorMetricsGate(t *testing.T) {
	body := `[
  {"n": 4096, "query": "4-way fan-out chain",
   "written_comparators": 2000000, "greedy_comparators": 1200000,
   "written_ns": 900000, "greedy_ns": 700000}
]`
	baseline, err := Read(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(baseline[0].Metrics); got != 4 {
		t.Fatalf("decoded %d metrics, want 4: %+v", got, baseline[0].Metrics)
	}
	fresh, _ := Read(strings.NewReader(body))
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() || rep.Compared != 4 {
		t.Fatalf("self-compare: %+v", rep)
	}
	fresh[0].Metrics["greedy_comparators"] = 1_800_000 // +50%
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "greedy_comparators" {
		t.Fatalf("comparator regression not flagged: %+v", rep)
	}
	if s := rep.Regressions[0].String(); !strings.Contains(s, "comparators)") || strings.Contains(s, "ms)") {
		t.Fatalf("comparator regression rendered in the wrong unit: %q", s)
	}
}

// TestServiceRecordsKeyOnScenario: the load records' latency
// percentiles gate keyed on (scenario, clients, workers) — the same
// scenario at a different concurrency is a different benchmark, and a
// p95 regression beyond the threshold fails.
func TestServiceRecordsKeyOnScenario(t *testing.T) {
	body := `[
  {"scenario": "uniform", "n": 2048, "clients": 8, "workers": 2,
   "wall_ns": 4000000000, "p50_ns": 200000000, "p95_ns": 800000000, "p99_ns": 900000000,
   "throughput_qps": 16.0, "rejection_rate": 0.0, "goroutine_hwm": 40}
]`
	baseline, err := Read(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := baseline[0].Key(); got != "n=2048 workers=2 scenario=uniform clients=8" {
		t.Fatalf("Key = %q", got)
	}
	fresh, _ := Read(strings.NewReader(body))
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() || rep.Compared != 4 {
		t.Fatalf("self-compare: %+v", rep)
	}
	fresh[0].Metrics["p95"] = 1100000000 // +37.5%
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "p95" {
		t.Fatalf("p95 regression not flagged: %+v", rep)
	}

	// Same scenario at different concurrency must not compare: it
	// surfaces as a missing benchmark instead.
	moved, _ := Read(strings.NewReader(body))
	moved[0].Clients = 16
	rep = Compare(baseline, moved, 1.25)
	if len(rep.MissingInFresh) != 1 || len(rep.Regressions) != 0 {
		t.Fatalf("cross-concurrency compare: %+v", rep)
	}
}

// TestShardRecordsKeyOnShards: the shard benchmark's rows gate keyed
// on (n, workers, shards) — the S=1 baseline row and each sharded row
// are distinct benchmarks, a wall or bytes regression at one shard
// count fails alone, and a record that moved to a different shard
// count surfaces as a missing benchmark, never a cross-compare.
func TestShardRecordsKeyOnShards(t *testing.T) {
	body := `[
  {"n": 8192, "m": 8192, "workers": 4, "shards": 1,
   "wall_ns": 400000000, "peak_bytes": 2400000, "total_alloc_bytes": 9000000,
   "comparators": 3300000, "speedup_vs_s1": 1.0, "results_equal_s1": true, "gomaxprocs": 1},
  {"n": 8192, "m": 8192, "workers": 4, "shards": 4,
   "wall_ns": 560000000, "peak_bytes": 3200000, "total_alloc_bytes": 12000000,
   "comparators": 4300000, "speedup_vs_s1": 0.7, "results_equal_s1": true, "gomaxprocs": 1}
]`
	baseline, err := Read(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := baseline[0].Key(); got != "n=8192 workers=4 shards=1" {
		t.Fatalf("Key = %q", got)
	}
	if got := baseline[1].Key(); got != "n=8192 workers=4 shards=4" {
		t.Fatalf("Key = %q", got)
	}
	fresh, _ := Read(strings.NewReader(body))
	if rep := Compare(baseline, fresh, 1.25); rep.Failed() || rep.Compared != 6 {
		t.Fatalf("self-compare: %+v", rep)
	}
	fresh[1].Metrics["wall"] = 840_000_000 // +50% at S=4 only
	rep := Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "wall" ||
		!strings.Contains(rep.Regressions[0].Key, "shards=4") {
		t.Fatalf("shard wall regression not flagged: %+v", rep)
	}
	fresh[1].Metrics["peak_bytes"] = 4_800_000 // +50% memory too
	rep = Compare(baseline, fresh, 1.25)
	if len(rep.Regressions) != 2 {
		t.Fatalf("shard bytes regression not flagged: %+v", rep)
	}

	// Same record at a different shard count must not compare.
	moved, _ := Read(strings.NewReader(body))
	moved[1].Shards = 2
	rep = Compare(baseline, moved, 1.25)
	if len(rep.MissingInFresh) != 1 || len(rep.Regressions) != 0 ||
		!strings.Contains(rep.MissingInFresh[0], "shards=4") {
		t.Fatalf("cross-shard-count compare: %+v", rep)
	}
}

// TestAgainstCommittedBaseline sanity-checks the committed baseline
// files: they must parse and self-compare cleanly, so the CI gate can
// never fail on baseline shape alone.
func TestAgainstCommittedBaseline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		metrics []int // allowed gated-metric counts per record — a file
		// may mix families (BENCH_sql.json: sql rows carry 4, planner
		// comparator rows carry 5)
	}{
		{"BENCH_join.json", []int{4}}, // wall ×2 + the gauge's peak and total bytes
		{"BENCH_sql.json", []int{4, 5}},
		{"BENCH_service.json", []int{4}},
		{"BENCH_shard.json", []int{3}},
		{"BENCH_wal.json", []int{2}},
		{"BENCH_fault.json", []int{2}},
	} {
		path := filepath.Join("..", "..", "BENCH_baseline", tc.name)
		recs, err := Load(path)
		if err != nil {
			t.Fatalf("committed baseline %s: %v", tc.name, err)
		}
		if len(recs) == 0 {
			t.Fatalf("committed baseline %s is empty", tc.name)
		}
		total := 0
		for _, r := range recs {
			for name, ns := range r.Metrics {
				if ns <= 0 {
					t.Fatalf("committed baseline %s has empty wall time %s: %+v", tc.name, name, r)
				}
			}
			total += len(r.Metrics)
			ok := false
			for _, want := range tc.metrics {
				ok = ok || len(r.Metrics) == want
			}
			if !ok {
				t.Fatalf("committed baseline %s carries %d metrics, want one of %v: %+v", tc.name, len(r.Metrics), tc.metrics, r)
			}
		}
		if rep := Compare(recs, recs, 1.25); rep.Failed() || rep.Compared != total {
			t.Fatalf("baseline self-compare: %+v", rep)
		}
	}
}
