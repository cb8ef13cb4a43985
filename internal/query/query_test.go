package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oblivjoin/internal/table"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT key, data FROM t WHERE key >= 10")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	want := []string{"select", "key", ",", "data", "from", "t", "where", "key", ">=", "10", ""}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("tokens = %v", texts)
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lex("= != < <= > >= ( ) . *")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 11 { // 10 + EOF
		t.Fatalf("got %d tokens", len(toks))
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"key ! 5", "key # 5"} {
		if _, err := lex(src); err == nil {
			t.Fatalf("lex(%q) did not fail", src)
		}
	}
}

func TestParseFullQuery(t *testing.T) {
	q, err := Parse("SELECT key, left.data, right.data FROM a JOIN b USING (key) WHERE key BETWEEN 3 AND 9 ORDER BY key LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.From != "a" || len(q.Joins) != 1 || q.Joins[0] != "b" || !q.OrderBy || q.Limit != 5 {
		t.Fatalf("parsed %+v", q)
	}
	if _, ok := q.Where.(Between); !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if len(q.Select) != 3 || q.Select[1].Col != ColLeftData {
		t.Fatalf("select = %+v", q.Select)
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("SELECT key, COUNT(*), SUM(data), MIN(data), MAX(data) FROM t GROUP BY key")
	if err != nil {
		t.Fatal(err)
	}
	aggs := []AggKind{AggNone, AggCount, AggSum, AggMin, AggMax}
	for i, want := range aggs {
		if q.Select[i].Agg != want {
			t.Fatalf("item %d agg = %v, want %v", i, q.Select[i].Agg, want)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE (key = 1 OR key = 2) AND NOT key > 10 AND key IN (SELECT key FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	cs := conjuncts(q.Where)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	if _, ok := cs[0].(Or); !ok {
		t.Fatalf("first conjunct %T", cs[0])
	}
	if _, ok := cs[1].(Not); !ok {
		t.Fatalf("second conjunct %T", cs[1])
	}
	if in, ok := cs[2].(In); !ok || in.Table != "u" {
		t.Fatalf("third conjunct %#v", cs[2])
	}
}

func TestParseRejects(t *testing.T) {
	bad := map[string]string{
		"SELECT FROM t":                     "select item",
		"SELECT key":                        "FROM",
		"SELECT key FROM":                   "table name",
		"SELECT key FROM select":            "keyword",
		"SELECT data FROM t WHERE data = 3": "key",
		"SELECT SUM(data) FROM t":           "GROUP BY",
		"SELECT data FROM t GROUP BY key":   "must be key or aggregates",
		"SELECT left.data FROM t":           "require a JOIN",
		"SELECT key FROM a JOIN b USING (key) GROUP BY key ORDER BY key LIMIT 1": "",
		"SELECT SUM(data) FROM a JOIN b USING (key) GROUP BY key":                "SUM(left.data)",
		"SELECT DISTINCT left.data FROM a JOIN b USING (key)":                    "DISTINCT over a JOIN",
		"SELECT key FROM t EXTRA":                                                "after end",
		"SELECT key FROM t WHERE key BETWEEN 5":                                  "AND",
		"SELECT key FROM t LIMIT x":                                              "number",
	}
	for src, frag := range bad {
		_, err := Parse(src)
		if frag == "" {
			if err != nil {
				t.Errorf("Parse(%q) unexpectedly failed: %v", src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q) did not fail", src)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Parse(%q) error %q missing %q", src, err, frag)
		}
	}
}

// ── engine tests ──────────────────────────────────────────────────────

func engineFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	users := []table.Row{
		{J: 1, D: table.MustData("ann")},
		{J: 2, D: table.MustData("ben")},
		{J: 3, D: table.MustData("cyd")},
		{J: 4, D: table.MustData("dot")},
	}
	orders := []table.Row{
		{J: 2, D: table.MustData("gpu")},
		{J: 2, D: table.MustData("ram")},
		{J: 3, D: table.MustData("ssd")},
		{J: 9, D: table.MustData("fan")},
	}
	sales := []table.Row{
		{J: 1, D: table.MustData("10")},
		{J: 1, D: table.MustData("20")},
		{J: 2, D: table.MustData("5")},
	}
	vips := []table.Row{
		{J: 2, D: table.MustData("v")},
		{J: 4, D: table.MustData("v")},
	}
	for name, rows := range map[string][]table.Row{
		"users": users, "orders": orders, "sales": sales, "vips": vips,
	} {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func mustQuery(t *testing.T, e *Engine, src string) *Result {
	t.Helper()
	res, err := e.Query(src)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return res
}

func flat(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = strings.Join(r, "|")
	}
	return out
}

func TestQuerySelectStar(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT * FROM users ORDER BY key")
	if !reflect.DeepEqual(res.Columns, []string{"key", "data"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 4 || res.Rows[0][1] != "ann" {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryFilter(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT data FROM users WHERE key BETWEEN 2 AND 3")
	if !reflect.DeepEqual(flat(res), []string{"ben", "cyd"}) {
		t.Fatalf("rows = %v", flat(res))
	}
	res = mustQuery(t, e, "SELECT key FROM users WHERE NOT (key = 1 OR key >= 3)")
	if !reflect.DeepEqual(flat(res), []string{"2"}) {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryJoin(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT key, left.data, right.data FROM users JOIN orders USING (key)")
	want := []string{"2|ben|gpu", "2|ben|ram", "3|cyd|ssd"}
	if !reflect.DeepEqual(flat(res), want) {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryJoinWithWhereOnLeft(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT key, right.data FROM users JOIN orders USING (key) WHERE key = 2")
	if !reflect.DeepEqual(flat(res), []string{"2|gpu", "2|ram"}) {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryGroupBy(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT key, COUNT(*), SUM(data), MIN(data), MAX(data) FROM sales GROUP BY key")
	want := []string{"1|2|30|10|20", "2|1|5|5|5"}
	if !reflect.DeepEqual(flat(res), want) {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryGroupByNonNumericFails(t *testing.T) {
	e := engineFixture(t)
	_, err := e.Query("SELECT key, SUM(data) FROM users GROUP BY key")
	if err == nil {
		t.Fatal("expected numeric-payload error")
	}
	// The error lists the offending payload and names no row index.
	if msg := err.Error(); !strings.Contains(msg, `"ann"`) || strings.Contains(msg, "row") {
		t.Fatalf("error %q: want the payload listed and no row index", msg)
	}
	// COUNT alone works on non-numeric payloads.
	res := mustQuery(t, e, "SELECT key, COUNT(*) FROM users GROUP BY key")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryJoinGroupByFastPath(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT key, COUNT(*) FROM users JOIN orders USING (key) GROUP BY key")
	want := []string{"2|2", "3|1"}
	if !reflect.DeepEqual(flat(res), want) {
		t.Fatalf("rows = %v", flat(res))
	}
	plan, err := e.Explain("SELECT key, COUNT(*) FROM users JOIN orders USING (key) GROUP BY key")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "§7 fast path") {
		t.Fatalf("plan %q does not use the fast path", plan)
	}
	if strings.Contains(plan, "oblivious-join(") {
		t.Fatalf("plan %q materializes the join needlessly", plan)
	}
}

func TestQueryJoinGroupBySumFastPath(t *testing.T) {
	e := NewEngine()
	// weights(key, numeric) joined with prices(key, numeric).
	if err := e.Register("weights", []table.Row{
		{J: 1, D: table.MustData("10")}, {J: 1, D: table.MustData("20")},
		{J: 2, D: table.MustData("5")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("prices", []table.Row{
		{J: 1, D: table.MustData("3")},
		{J: 2, D: table.MustData("7")}, {J: 2, D: table.MustData("8")},
	}); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, e,
		"SELECT key, COUNT(*), SUM(left.data), SUM(right.data) FROM weights JOIN prices USING (key) GROUP BY key")
	// Group 1: pairs 2*1=2, SUM(left)=1*30=30, SUM(right)=2*3=6.
	// Group 2: pairs 1*2=2, SUM(left)=2*5=10, SUM(right)=1*15=15.
	want := []string{"1|2|30|6", "2|2|10|15"}
	if !reflect.DeepEqual(flat(res), want) {
		t.Fatalf("rows = %v", flat(res))
	}
	plan, err := e.Explain("SELECT key, SUM(left.data) FROM weights JOIN prices USING (key) GROUP BY key")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "join-group-sums") {
		t.Fatalf("plan = %q", plan)
	}
	// Non-numeric payloads produce a clean error.
	if err := e.Register("names", []table.Row{{J: 1, D: table.MustData("bob")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT key, SUM(left.data) FROM names JOIN prices USING (key) GROUP BY key"); err == nil {
		t.Fatal("expected numeric-payload error")
	}
}

func TestQuerySemijoinViaIn(t *testing.T) {
	e := engineFixture(t)
	res := mustQuery(t, e, "SELECT data FROM users WHERE key IN (SELECT key FROM vips)")
	if !reflect.DeepEqual(flat(res), []string{"ben", "dot"}) {
		t.Fatalf("rows = %v", flat(res))
	}
	plan, err := e.Explain("SELECT data FROM users WHERE key IN (SELECT key FROM vips)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "semijoin(vips)") {
		t.Fatalf("plan = %q", plan)
	}
}

func TestQueryInMustBeConjunct(t *testing.T) {
	e := engineFixture(t)
	_, err := e.Query("SELECT key FROM users WHERE key = 1 OR key IN (SELECT key FROM vips)")
	if err == nil || !strings.Contains(err.Error(), "top-level AND conjunct") {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryDistinctAndLimit(t *testing.T) {
	e := engineFixture(t)
	if err := e.Register("dups", []table.Row{
		{J: 1, D: table.MustData("x")}, {J: 1, D: table.MustData("x")},
		{J: 2, D: table.MustData("y")},
	}); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, e, "SELECT DISTINCT key, data FROM dups")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", flat(res))
	}
	res = mustQuery(t, e, "SELECT key FROM users ORDER BY key LIMIT 2")
	if !reflect.DeepEqual(flat(res), []string{"1", "2"}) {
		t.Fatalf("rows = %v", flat(res))
	}
}

func TestQueryErrors(t *testing.T) {
	e := engineFixture(t)
	for _, src := range []string{
		"SELECT key FROM ghosts",
		"SELECT key FROM users JOIN ghosts USING (key)",
		"SELECT key FROM users WHERE key IN (SELECT key FROM ghosts)",
	} {
		if _, err := e.Query(src); err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Errorf("Query(%q): err = %v", src, err)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Register("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := e.Register("bad-name", nil); err == nil {
		t.Fatal("hyphenated name accepted")
	}
	if err := e.Register("Ok_1", nil); err != nil {
		// Upper case is folded, not rejected.
		t.Fatalf("register: %v", err)
	}
	if _, ok := e.tables["ok_1"]; !ok {
		t.Fatal("name not folded to lower case")
	}
}

func TestExplainPlans(t *testing.T) {
	e := engineFixture(t)
	plan, err := e.Explain("SELECT key FROM users WHERE key < 3 AND key IN (SELECT key FROM vips) ORDER BY key LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"scan(users)", "semijoin(vips)", "filter[branch-free]", "sort(key)", "limit(1)", "project"} {
		if !strings.Contains(plan, stage) {
			t.Fatalf("plan %q missing stage %q", plan, stage)
		}
	}
}

func TestCompileCoversAllOps(t *testing.T) {
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		pred := compile(Cmp{Op: op, Lit: 5})
		for _, k := range []uint64{4, 5, 6} {
			got := pred(table.Row{J: k})
			var want uint64
			switch op {
			case "=":
				want = b2u(k == 5)
			case "!=":
				want = b2u(k != 5)
			case "<":
				want = b2u(k < 5)
			case "<=":
				want = b2u(k <= 5)
			case ">":
				want = b2u(k > 5)
			case ">=":
				want = b2u(k >= 5)
			}
			if got != want {
				t.Fatalf("op %s key %d: got %d want %d", op, k, got, want)
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestQueryLargeJoinAgainstReference(t *testing.T) {
	e := NewEngine()
	var a, b []table.Row
	for i := 0; i < 60; i++ {
		a = append(a, table.Row{J: uint64(i % 10), D: table.MustData(fmt.Sprintf("a%02d", i))})
	}
	for i := 0; i < 40; i++ {
		b = append(b, table.Row{J: uint64(i % 13), D: table.MustData(fmt.Sprintf("b%02d", i))})
	}
	if err := e.Register("a", a); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("b", b); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, e, "SELECT key, left.data, right.data FROM a JOIN b USING (key)")
	want := 0
	for _, ra := range a {
		for _, rb := range b {
			if ra.J == rb.J {
				want++
			}
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), want)
	}
	// Fast-path count agrees with materialized join size.
	res2 := mustQuery(t, e, "SELECT key, COUNT(*) FROM a JOIN b USING (key) GROUP BY key")
	total := 0
	for _, r := range res2.Rows {
		var c int
		fmt.Sscanf(r[1], "%d", &c)
		total += c
	}
	if total != want {
		t.Fatalf("fast-path total = %d, want %d", total, want)
	}
}
