package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oblivjoin/internal/table"
)

// queryCorpus covers every shape the grammar supports; the equivalence
// and obliviousness properties below quantify over it.
var queryCorpus = []string{
	"SELECT * FROM a",
	"SELECT key, data FROM a WHERE key BETWEEN 2 AND 5",
	"SELECT key FROM a WHERE NOT (key = 1 OR key >= 6) ORDER BY key",
	"SELECT DISTINCT * FROM a",
	"SELECT * FROM a ORDER BY key LIMIT 3",
	"SELECT data FROM a WHERE key IN (SELECT key FROM b) AND key < 7",
	"SELECT key, COUNT(*), SUM(data), MIN(data), MAX(data) FROM nums GROUP BY key",
	"SELECT key, COUNT(*) FROM nums GROUP BY key LIMIT 2",
	"SELECT key, left.data, right.data FROM a JOIN b USING (key)",
	"SELECT key, right.data FROM a JOIN b USING (key) WHERE key > 1 ORDER BY key",
	"SELECT * FROM a JOIN b USING (key) LIMIT 4",
	"SELECT key, left.data, right.data FROM a JOIN b USING (key) JOIN c USING (key)",
	"SELECT key, COUNT(*) FROM a JOIN b USING (key) GROUP BY key",
	"SELECT key, COUNT(*) FROM a JOIN b USING (key) JOIN c USING (key) GROUP BY key",
	"SELECT key, SUM(left.data), SUM(right.data), COUNT(*) FROM nums JOIN nums2 USING (key) GROUP BY key",
}

// corpusCatalog builds the five tables the corpus references. payload
// tags the textual payloads so two catalogs can share every size and
// key while differing in contents.
func corpusCatalog(payload string) map[string][]table.Row {
	mk := func(keys []uint64, prefix string) []table.Row {
		rows := make([]table.Row, len(keys))
		for i, k := range keys {
			rows[i] = table.Row{J: k, D: table.MustData(fmt.Sprintf("%s%s%d", prefix, payload, i))}
		}
		return rows
	}
	mkNum := func(keys []uint64, vals []uint64) []table.Row {
		rows := make([]table.Row, len(keys))
		for i, k := range keys {
			rows[i] = table.Row{J: k, D: table.MustData(fmt.Sprint(vals[i]))}
		}
		return rows
	}
	return map[string][]table.Row{
		"a":     mk([]uint64{1, 2, 2, 3, 5, 6, 7}, "a"),
		"b":     mk([]uint64{2, 2, 3, 5, 9}, "b"),
		"c":     mk([]uint64{2, 3, 3, 8}, "c"),
		"nums":  mkNum([]uint64{1, 1, 2, 2, 2, 4}, []uint64{10, 20, 5, 7, 9, 100}),
		"nums2": mkNum([]uint64{1, 2, 2, 4, 4}, []uint64{3, 4, 5, 6, 7}),
	}
}

func corpusEngine(t *testing.T, o Options, payload string) *Engine {
	t.Helper()
	e := NewEngineWith(o)
	for name, rows := range corpusCatalog(payload) {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestQueryEquivalenceAcrossConfigs is the SQL-layer determinism
// property: every corpus query produces identical rows, columns and
// trace hashes on the plain and on the encrypted store.
func TestQueryEquivalenceAcrossConfigs(t *testing.T) {
	configs := []struct {
		name string
		o    Options
	}{
		{"plain", Options{TraceHash: true}},
		{"encrypted", Options{TraceHash: true, Encrypted: true}},
	}
	for _, src := range queryCorpus {
		var baseRes *Result
		var baseHash string
		for i, c := range configs {
			e := corpusEngine(t, c.o, "x")
			res, err := e.Query(src)
			if err != nil {
				t.Fatalf("%s: Query(%q): %v", c.name, src, err)
			}
			st := e.LastStats()
			if st == nil || st.TraceHash == "" {
				t.Fatalf("%s: Query(%q): no trace hash collected", c.name, src)
			}
			if i == 0 {
				baseRes, baseHash = res, st.TraceHash
				continue
			}
			if !reflect.DeepEqual(res, baseRes) {
				t.Fatalf("%s: Query(%q) rows diverge from plaintext:\n%v\nvs\n%v",
					c.name, src, res.Rows, baseRes.Rows)
			}
			if st.TraceHash != baseHash {
				t.Fatalf("%s: Query(%q) trace hash diverges from plaintext", c.name, src)
			}
		}
	}
}

// TestExplainAndTraceDependOnlyOnSizes is obliviousness at the SQL
// layer: two catalogs with identical table sizes and key structure but
// different payload contents must produce identical plans and identical
// trace hashes for every corpus query.
func TestExplainAndTraceDependOnlyOnSizes(t *testing.T) {
	// The two catalogs differ only in textual payload contents; numeric
	// tables keep identical values (value aggregates reveal their
	// outputs by design, not their access pattern).
	for _, src := range queryCorpus {
		e1 := corpusEngine(t, Options{TraceHash: true}, "x")
		e2 := corpusEngine(t, Options{TraceHash: true}, "YY")
		p1, err := e1.Explain(src)
		if err != nil {
			t.Fatalf("Explain(%q): %v", src, err)
		}
		p2, err := e2.Explain(src)
		if err != nil {
			t.Fatalf("Explain(%q): %v", src, err)
		}
		if p1 != p2 {
			t.Fatalf("Explain(%q) differs between same-size catalogs:\n%s\nvs\n%s", src, p1, p2)
		}
		if _, err := e1.Query(src); err != nil {
			t.Fatalf("Query(%q): %v", src, err)
		}
		if _, err := e2.Query(src); err != nil {
			t.Fatalf("Query(%q): %v", src, err)
		}
		h1, h2 := e1.LastStats().TraceHash, e2.LastStats().TraceHash
		if h1 != h2 {
			t.Fatalf("Query(%q): trace hash depends on table contents", src)
		}
		if n1, n2 := e1.LastStats().Comparators, e2.LastStats().Comparators; n1 != n2 {
			t.Fatalf("Query(%q): comparator count depends on table contents (%d vs %d)", src, n1, n2)
		}
	}
}

// TestMultiwayJoinEndToEnd pins the acceptance criterion's 3-way join
// semantics against hand-computed output.
func TestMultiwayJoinEndToEnd(t *testing.T) {
	e := NewEngine()
	reg := func(name string, rows ...table.Row) {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	r := func(k uint64, d string) table.Row { return table.Row{J: k, D: table.MustData(d)} }
	reg("u", r(1, "ann"), r(2, "ben"), r(3, "cyd"))
	reg("o", r(2, "gpu"), r(2, "ram"), r(3, "ssd"), r(9, "zzz"))
	reg("s", r(2, "kyiv"), r(3, "oslo"), r(3, "lima"))

	res, err := e.Query("SELECT key, left.data, right.data FROM u JOIN o USING (key) JOIN s USING (key) ORDER BY key")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = strings.Join(row, "|")
	}
	want := []string{
		"2|ben+gpu|kyiv",
		"2|ben+ram|kyiv",
		"3|cyd+ssd|lima",
		"3|cyd+ssd|oslo",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("3-way join rows = %v, want %v", got, want)
	}

	plan, err := e.Explain("SELECT key, COUNT(*) FROM u JOIN o USING (key) JOIN s USING (key) GROUP BY key")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "rekey") || !strings.Contains(plan, "join-group-stats(s) [§7 fast path]") {
		t.Fatalf("multi-way aggregate plan = %q", plan)
	}
}

// TestRekeyOverflowError verifies the chain fails cleanly when a
// combined payload exceeds the fixed public width.
func TestRekeyOverflowError(t *testing.T) {
	e := NewEngine()
	long := strings.Repeat("x", 12)
	reg := func(name string, rows ...table.Row) {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	reg("a", table.Row{J: 1, D: table.MustData(long)})
	reg("b", table.Row{J: 1, D: table.MustData(long)})
	reg("c", table.Row{J: 1, D: table.MustData("y")})
	_, err := e.Query("SELECT * FROM a JOIN b USING (key) JOIN c USING (key)")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want payload-overflow error", err)
	}
}

// TestSumOverJoinValidatesUpFront pins the bugfix: non-numeric payloads
// fail before the oblivious pass, and the error lists the offending
// values rather than only the first one.
func TestSumOverJoinValidatesUpFront(t *testing.T) {
	e := NewEngineWith(Options{CollectStats: true})
	reg := func(name string, rows ...table.Row) {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	r := func(k uint64, d string) table.Row { return table.Row{J: k, D: table.MustData(d)} }
	reg("l", r(1, "10"), r(1, "oops"), r(2, "30"))
	reg("r", r(1, "5"), r(2, "bad"), r(2, "worse"))
	_, err := e.Query("SELECT key, SUM(left.data) FROM l JOIN r USING (key) GROUP BY key")
	if err == nil {
		t.Fatal("expected validation error")
	}
	for _, want := range []string{`"oops"`, `"bad"`, `"worse"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list offending value %s", err, want)
		}
	}
	// The failure must precede execution: no stats report survives.
	if e.LastStats() != nil {
		t.Fatal("stats recorded for a failed query")
	}
}

// TestPlanStatsReport checks the per-operator report matches the plan
// and carries the instrumentation totals.
func TestPlanStatsReport(t *testing.T) {
	e := corpusEngine(t, Options{TraceHash: true}, "x")
	src := "SELECT key, left.data, right.data FROM a JOIN b USING (key) JOIN c USING (key)"
	if _, err := e.Query(src); err != nil {
		t.Fatal(err)
	}
	st := e.LastStats()
	if st == nil {
		t.Fatal("no stats")
	}
	var stages []string
	for _, op := range st.Operators {
		stages = append(stages, op.Op)
	}
	plan, err := e.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stages, " → "); got != plan {
		t.Fatalf("stats stages %q != plan %q", got, plan)
	}
	if st.Comparators == 0 || st.TraceEvents == 0 || st.TraceHash == "" {
		t.Fatalf("instrumentation empty: %+v", st)
	}
	rendered := st.String()
	if !strings.Contains(rendered, "oblivious-join(b)") || !strings.Contains(rendered, "trace-hash=") {
		t.Fatalf("rendered stats missing fields:\n%s", rendered)
	}
}

// TestEngineSeedStability: the one random input of a run is the sealed
// store's per-engine key, and nothing observable depends on it — two
// sealed engines, each under its own fresh key, return the same rows
// and record the same trace.
func TestEngineSeedStability(t *testing.T) {
	run := func() ([][]string, string) {
		e := corpusEngine(t, Options{TraceHash: true, Encrypted: true}, "x")
		res, err := e.Query("SELECT key, left.data, right.data FROM a JOIN b USING (key)")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, e.LastStats().TraceHash
	}
	r1, h1 := run()
	r2, h2 := run()
	if !reflect.DeepEqual(r1, r2) || h1 != h2 {
		t.Fatal("sealed runs under different keys diverge")
	}
}

// TestGroupByLimitApplies: LIMIT now applies uniformly, including over
// the §7 fast path.
func TestGroupByLimitApplies(t *testing.T) {
	e := corpusEngine(t, Options{}, "x")
	res, err := e.Query("SELECT key, COUNT(*) FROM a JOIN b USING (key) GROUP BY key LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
