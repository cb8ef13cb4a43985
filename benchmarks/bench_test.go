package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 100 samples: p90 leaves exactly ten beyond it.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 160", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{10, 20, 30}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of three = %v, %v; Python gives 10, 30", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Layer: "http", Name: "point", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Layer: "service", Name: "handler", Start: 10, End: 90},
		// Two overlapping children and one reaching past the parent: the
		// covered part of [10, 90] is [20, 60] ∪ [70, 90] = 60.
		{ID: 3, Parent: 2, Op: 1, Layer: "exec", Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 2, Op: 1, Layer: "exec", Name: "b", Start: 40, End: 60},
		{ID: 5, Parent: 2, Op: 1, Layer: "exec", Name: "c", Start: 70, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 20, 3: 30, 4: 20, 5: 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byLayer, total := layerSelf(spans)
	if byLayer["http"] != 20 || byLayer["service"] != 20 || byLayer["exec"] != 75 || total != 115 {
		t.Errorf("layer self %v total %d", byLayer, total)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id, end := tr.begin(1, 0, "x", "y")
	end()
	if id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}

func TestJoinGeneratorsDeterministicAndSizeStable(t *testing.T) {
	const n = 256
	for _, shape := range joinShapes {
		a, b := genJoinInput(shape, n, 7), genJoinInput(shape, n, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different input", shape)
		}
		c := genJoinInput(shape, n, 8)
		if reflect.DeepEqual(a.left, c.left) {
			t.Errorf("%s: different seeds, same input", shape)
		}
		for _, in := range []joinInput{a, c} {
			if len(in.left) != n || len(in.right) != n || in.want.rows != n {
				t.Errorf("%s: sizes (%d, %d, %d), want all %d", shape, len(in.left), len(in.right), in.want.rows, n)
			}
		}
	}
}

// cardinalities returns each shape's reference row count.
func cardinalities(shapes []*sqlShape) map[string]int {
	out := map[string]int{}
	for _, sh := range shapes {
		out[sh.name] = len(sh.want)
	}
	return out
}

func TestSQLGeneratorsDeterministicAndSizeStable(t *testing.T) {
	sz := sqlSizes{dim: 16, mid: 64, fact: 256, read: 32, hot: 48}
	serve := func(seed int64) (*sqlTables, map[string]int) {
		w := &sqlWorkload{sz: sz, tabs: genServeTables(sz, seed)}
		return w.tabs, cardinalities(w.serveShapes())
	}
	durable := func(seed int64) (*sqlTables, map[string]int) {
		w := &sqlWorkload{sz: sz, durable: true, tabs: genDurableTables(sz, 2, seed)}
		return w.tabs, cardinalities(w.durableShapes())
	}
	for name, gen := range map[string]func(int64) (*sqlTables, map[string]int){"serve": serve, "durable": durable} {
		t1, c1 := gen(3)
		t1b, _ := gen(3)
		t2, c2 := gen(4)
		if !reflect.DeepEqual(t1, t1b) {
			t.Errorf("%s: same seed, different tables", name)
		}
		if reflect.DeepEqual(t1.tables, t2.tables) {
			t.Errorf("%s: different seeds, same tables", name)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: output cardinalities differ across seeds: %v vs %v", name, c1, c2)
		}
		for tbl, rows := range t1.tables {
			if len(rows) != len(t2.tables[tbl]) {
				t.Errorf("%s: table %s has %d rows under one seed, %d under another", name, tbl, len(rows), len(t2.tables[tbl]))
			}
		}
		for shape, n := range c1 {
			if n == 0 {
				t.Errorf("%s: shape %s returns no rows", name, shape)
			}
		}
	}
}

func TestOpClass(t *testing.T) {
	for label, want := range map[string]string{
		"scan(dim)":                               "scan",
		"filter[branch-free]":                     "filter",
		"oblivious-join(mid2)":                    "oblivious-join",
		"join-group-stats(fact) [§7 fast path]":   "join-aggregate",
		"sort(key) [already ordered]":             "sort",
		"distinct[oblivious]":                     "distinct",
		"limit(32)":                               "limit",
		"project":                                 "project",
		"rekey":                                   "rekey",
		"semijoin(dim)":                           "semijoin",
		"join-group-sums(fact) [§7 fast path]":    "join-aggregate",
		"restore[0 2 1] → canonicalize(j,d1,d2)":  "restore",
		"canonicalize(j,d1,d2)":                   "canonicalize",
		"group-by[oblivious]":                     "group-by",
		"something new the benchmark never saw 1": "something new the benchmark never saw 1",
	} {
		if got := opClass(label); got != want {
			t.Errorf("opClass(%q) = %q, want %q", label, got, want)
		}
	}
}

func TestBodyPrefixIgnoresStats(t *testing.T) {
	plain := []byte("{\n  \"columns\": [\n    \"key\"\n  ],\n  \"rows\": [\n    [\n      \"1\"\n    ]\n  ]\n}\n")
	stats := []byte("{\n  \"columns\": [\n    \"key\"\n  ],\n  \"rows\": [\n    [\n      \"1\"\n    ]\n  ],\n  \"stats\": {\n    \"total_ns\": 5\n  }\n}\n")
	if !bytes.Equal(bodyPrefix(plain), bodyPrefix(stats)) {
		t.Errorf("prefixes differ:\n%q\n%q", bodyPrefix(plain), bodyPrefix(stats))
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestContractMatchesBinary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range c.Workloads {
		check(w.Name)
		workloads = append(workloads, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the binary runs %v", workloads, workloadNames)
	}
	for _, m := range append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the binary's list:\n%v\n%v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the binary's list")
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(c.PerLayer) > 128 || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("%d per-layer metrics, run_seconds %d", len(c.PerLayer), c.RunSeconds)
	}
}

// TestSmoke runs all four workloads at tiny sizes, untraced and traced,
// and checks that each prints exactly the contract's metrics.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rec, err := runOnce(runConfig{workload: name, seed: 5, seconds: 0.05, trace: traced, smoke: true,
				workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out")})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 12 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, the contract has %d", name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, d.Name, m.Value)
				}
			}
			if rec.Checks["oracle"] == 0 {
				t.Errorf("%s traced=%v: no oracle check ran", name, traced)
			}
			if strings.HasPrefix(name, "join-") && rec.Checks["trace_hash"] == 0 {
				t.Errorf("%s: no trace-hash check ran", name)
			}
			if name == "sql-durable-rw" && rec.Checks["durability"] == 0 {
				t.Errorf("%s traced=%v: no durability check ran", name, traced)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
				if strings.HasPrefix(name, "join-") {
					if v := rec.Metrics["query.model_exact"].Value; v != 1 {
						t.Errorf("%s: query.model_exact = %v", name, v)
					}
					if v := rec.Metrics["core.phase_sum_over_whole"].Value; v < 0.95 || v > 1.05 {
						t.Errorf("%s: core.phase_sum_over_whole = %v", name, v)
					}
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def  metricDef
		a, b side
		want string
	}{
		{lower, side{median: 100}, side{median: 105}, "same"},
		{lower, side{median: 100}, side{median: 111}, "worse"},
		{lower, side{median: 100}, side{median: 85}, "better"},
		{higher, side{median: 100}, side{median: 85}, "worse"},
		{higher, side{median: 100}, side{median: 115}, "better"},
		{lower, side{median: 100, spread: 0.2}, side{median: 95}, "unresolved"},
		{lower, side{median: 100, spread: 0.2}, side{median: 130}, "worse"},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v→%v: %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 4; i++ {
			rec := &record{Workload: "join-plain", Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = metricValue{Value: 10, Unit: d.Unit}
			}
			rec.Metrics["op_p50_ms"] = metricValue{Value: p50 + float64(i)*0.01, Unit: "ms"}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", 40, 0)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("same.json", 41, 0)); err != nil || worse {
		t.Errorf("same: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if worse, err := compareFiles(&out, base, write("slow.json", 50, 0)); err != nil || !worse {
		t.Errorf("slower p50 not flagged: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(&out, base, write("failing.json", 40, 1)); err != nil || !worse {
		t.Errorf("higher error rate not flagged: worse=%v err=%v", worse, err)
	}
	if !strings.Contains(out.String(), "join-plain") || !strings.Contains(out.String(), "error_rate") {
		t.Errorf("output lacks rows:\n%s", out.String())
	}
}
