package oblivjoin

import (
	"reflect"
	"strings"
	"testing"
)

func newEngineFixture(t *testing.T) *Engine {
	t.Helper()
	eng := NewEngine()
	users := NewTable()
	users.MustAppend(1, "ann")
	users.MustAppend(2, "ben")
	orders := NewTable()
	orders.MustAppend(2, "gpu")
	orders.MustAppend(2, "ram")
	if err := eng.Register("users", users); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("orders", orders); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineQuery(t *testing.T) {
	eng := newEngineFixture(t)
	res, err := eng.Query("SELECT key, left.data, right.data FROM users JOIN orders USING (key)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Columns, []string{"key", "left.data", "right.data"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != "ben" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEngineExplain(t *testing.T) {
	eng := newEngineFixture(t)
	plan, err := eng.Explain("SELECT key FROM users WHERE key = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "filter[branch-free]") {
		t.Fatalf("plan = %q", plan)
	}
}

func TestEngineErrors(t *testing.T) {
	eng := newEngineFixture(t)
	if _, err := eng.Query("SELECT key FROM nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := eng.Query("SELEC key"); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := eng.Register("bad name", NewTable()); err == nil {
		t.Fatal("bad table name accepted")
	}
}

func multiwayFixture(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	eng := NewEngine(opts...)
	users := NewTable()
	users.MustAppend(1, "ann")
	users.MustAppend(2, "ben")
	users.MustAppend(3, "cyd")
	orders := NewTable()
	orders.MustAppend(2, "gpu")
	orders.MustAppend(2, "ram")
	orders.MustAppend(3, "ssd")
	ships := NewTable()
	ships.MustAppend(2, "kyiv")
	ships.MustAppend(3, "oslo")
	for name, tb := range map[string]*Table{"users": users, "orders": orders, "ships": ships} {
		if err := eng.Register(name, tb); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestEngineOptionEquivalence is the acceptance criterion at the public
// API: a 3-way join produces identical rows and identical trace hashes
// sequentially, with WithWorkers(4), and with WithEncryptedStore.
func TestEngineOptionEquivalence(t *testing.T) {
	const q = "SELECT key, left.data, right.data FROM users JOIN orders USING (key) JOIN ships USING (key)"
	run := func(opts ...EngineOption) (*QueryResult, string) {
		eng := multiwayFixture(t, append(opts, WithTraceHash())...)
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.LastStats()
		if st == nil || st.TraceHash == "" {
			t.Fatal("no trace hash")
		}
		return res, st.TraceHash
	}
	seq, seqHash := run()
	if len(seq.Rows) != 3 {
		t.Fatalf("rows = %v", seq.Rows)
	}
	par, parHash := run(WithWorkers(4))
	enc, encHash := run(WithEncryptedStore())
	both, bothHash := run(WithEncryptedStore(), WithWorkers(3))
	if !reflect.DeepEqual(par, seq) || !reflect.DeepEqual(enc, seq) || !reflect.DeepEqual(both, seq) {
		t.Fatalf("rows diverge:\nseq %v\npar %v\nenc %v\nboth %v", seq.Rows, par.Rows, enc.Rows, both.Rows)
	}
	if parHash != seqHash || encHash != seqHash || bothHash != seqHash {
		t.Fatalf("trace hashes diverge: seq %s par %s enc %s both %s", seqHash, parHash, encHash, bothHash)
	}
}

func TestEngineLastStats(t *testing.T) {
	eng := multiwayFixture(t, WithStats())
	if eng.LastStats() != nil {
		t.Fatal("stats before any query")
	}
	if _, err := eng.Query("SELECT key FROM users ORDER BY key"); err != nil {
		t.Fatal(err)
	}
	st := eng.LastStats()
	if st == nil || len(st.Operators) == 0 || st.TraceEvents == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Operators[0].Op != "scan(users)" {
		t.Fatalf("first stage = %q", st.Operators[0].Op)
	}
	if !strings.Contains(st.String(), "sort(key)") {
		t.Fatalf("rendered stats:\n%s", st)
	}
	// Stats collection off → no report.
	eng2 := multiwayFixture(t)
	if _, err := eng2.Query("SELECT key FROM users"); err != nil {
		t.Fatal(err)
	}
	if eng2.LastStats() != nil {
		t.Fatal("stats collected without WithStats")
	}
}
