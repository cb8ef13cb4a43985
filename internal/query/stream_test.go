package query

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
)

// storeModes are the storage backends the equality properties quantify
// over.
var storeModes = []struct {
	name string
	set  func(o *Options)
}{
	{"plain", func(o *Options) {}},
	{"block-sealed", func(o *Options) { o.Encrypted = true }},
}

// goldenFile is the table the deleted materialized executor left
// behind. It was recorded at commit 7c2a460, the last one that had both
// executors, after checking there that the stage-at-a-time and the
// streaming run agreed on every row of it. The streaming executor is
// now checked against the record instead of against the reference.
//
// A deliberate change of the canonical trace (a new hash version, a new
// accounting weight) re-records it: a failing run logs the complete
// fresh table, ready to replace the file.
const goldenFile = "golden_trace.json"

// goldenEntry is one (case, store mode) row of the golden table. Every
// value is a pure function of the query and the public sizes.
type goldenEntry struct {
	Case        string `json:"case"`
	Mode        string `json:"mode"`
	Rows        string `json:"rows_sha256"`
	Comparators uint64 `json:"comparators"`
	TraceEvents uint64 `json:"trace_events"`
	PeakBytes   int64  `json:"peak_bytes"`
	TraceHash   string `json:"trace_hash"`
}

// goldenCase is one query over one catalog.
type goldenCase struct {
	name   string
	sql    string
	tables map[string][]table.Row
}

// boundarySizes straddle the one batch width the driver hands rows off
// at, plus a many-batch size.
var boundarySizes = []int{1, exec.DefaultBatch - 1, exec.DefaultBatch, exec.DefaultBatch + 1, 4096}

// corpusCases is every queryCorpus query over the corpus catalog.
func corpusCases() []goldenCase {
	var cs []goldenCase
	for _, sql := range queryCorpus {
		cs = append(cs, goldenCase{"corpus/" + sql, sql, corpusCatalog("x")})
	}
	return cs
}

// streamChainCases run scan→filter→distinct→sort→limit — every
// row-stream operator — at the boundary sizes.
func streamChainCases() []goldenCase {
	const sql = "SELECT DISTINCT key, data FROM t WHERE key > 5 ORDER BY key LIMIT 1000"
	var cs []goldenCase
	for _, n := range boundarySizes {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{J: uint64(i % 97), D: table.MustData(fmt.Sprintf("d%d", i%13))}
		}
		cs = append(cs, goldenCase{fmt.Sprintf("stream-chain/n=%d", n), sql, map[string][]table.Row{"t": rows}})
	}
	return cs
}

// joinChainCases run filter→join→rekey→join at the boundary sizes: the
// fed join, the pairs→rekey source hand-off and a second join fed by
// it. Keys are unique, so every stage carries n−1 rows.
func joinChainCases() []goldenCase {
	const sql = "SELECT key, left.data, right.data FROM l JOIN r USING (key) JOIN s USING (key) WHERE key >= 1 ORDER BY key"
	var cs []goldenCase
	for _, n := range boundarySizes {
		tables := map[string][]table.Row{}
		for _, name := range []string{"l", "r", "s"} {
			rows := make([]table.Row, n)
			for i := range rows {
				rows[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("%s%d", name, i))}
			}
			tables[name] = rows
		}
		cs = append(cs, goldenCase{fmt.Sprintf("join-chain/n=%d", n), sql, tables})
	}
	return cs
}

// aggregateCases run the three aggregate shapes — GROUP BY with
// SUM/MIN/MAX, COUNT over a join, SUM over a join — at the boundary
// sizes, where the aggregates' input crosses the batch width. Payloads
// are numeric and the two tables' key ranges differ, so some groups
// join and some do not.
func aggregateCases() []goldenCase {
	queries := []struct{ name, sql string }{
		{"group-by", "SELECT key, COUNT(*), SUM(data), MIN(data), MAX(data) FROM t GROUP BY key"},
		{"join-count", "SELECT key, COUNT(*) FROM t JOIN u USING (key) GROUP BY key"},
		{"join-sum", "SELECT key, SUM(left.data), SUM(right.data) FROM t JOIN u USING (key) GROUP BY key"},
	}
	mk := func(n, keys, mul int) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{J: uint64(i % keys), D: table.MustData(fmt.Sprint(i * mul % 1000))}
		}
		return rows
	}
	var cs []goldenCase
	for _, q := range queries {
		for _, n := range boundarySizes {
			tables := map[string][]table.Row{"t": mk(n, 97, 7919), "u": mk(n, 89, 104729)}
			cs = append(cs, goldenCase{fmt.Sprintf("aggregate/%s/n=%d", q.name, n), q.sql, tables})
		}
	}
	return cs
}

// runGoldenCase executes c under o and reports the result with its
// golden row for mode.
func runGoldenCase(t *testing.T, c goldenCase, mode string, o Options) (*Result, goldenEntry, *PlanStats) {
	t.Helper()
	o.TraceHash = true
	e := NewEngineWith(o)
	registerAll(t, e, c.tables)
	res, err := e.Query(c.sql)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.name, mode, err)
	}
	ps := e.LastStats()
	return res, goldenEntry{
		Case: c.name, Mode: mode, Rows: rowsHash(res),
		Comparators: ps.Comparators, TraceEvents: ps.TraceEvents,
		PeakBytes: ps.PeakBytes, TraceHash: ps.TraceHash,
	}, ps
}

// rowsHash is the golden table's digest of a result: columns, then
// every row, in order.
func rowsHash(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Fprintf(h, "%q\n", row)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkAgainstRef compares res with the naive reference executor of
// ref_test.go: equal multisets, or — under a LIMIT, which the
// reference does not apply — the right number of rows, all drawn from
// the reference's.
func checkAgainstRef(t *testing.T, c goldenCase, res *Result) {
	t.Helper()
	q, err := Parse(c.sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refQuery(c.tables, q)
	if err != nil {
		t.Fatalf("%s: reference: %v", c.name, err)
	}
	gm, wm := multiset(res.Rows), multiset(want)
	if q.Limit < 0 || q.Limit >= len(want) {
		if !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: rows diverge from the reference executor:\nengine   : %v\nreference: %v", c.name, gm, wm)
		}
		return
	}
	if len(gm) != q.Limit {
		t.Fatalf("%s: %d rows under LIMIT %d", c.name, len(gm), q.Limit)
	}
	left := map[string]int{}
	for _, r := range wm {
		left[r]++
	}
	for _, r := range gm {
		if left[r]--; left[r] < 0 {
			t.Fatalf("%s: row %q is not in the reference executor's output", c.name, r)
		}
	}
}

// loadGolden reads the golden table, keyed by case and store mode.
func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	golden := map[string]goldenEntry{}
	for _, g := range entries {
		golden[g.Case+"\x1f"+g.Mode] = g
	}
	return golden
}

// checkGolden runs every case in every store mode and requires the
// golden table's values bit for bit, and the naive reference executor's
// rows.
func checkGolden(t *testing.T, cases []goldenCase) {
	t.Helper()
	golden := loadGolden(t)
	var fresh []goldenEntry
	for _, c := range cases {
		for _, mode := range storeModes {
			want, ok := golden[c.name+"\x1f"+mode.name]
			if !ok {
				t.Errorf("%s/%s: no golden entry", c.name, mode.name)
			}
			var o Options
			mode.set(&o)
			res, got, _ := runGoldenCase(t, c, mode.name, o)
			checkAgainstRef(t, c, res)
			fresh = append(fresh, got)
			if ok && got != want {
				t.Errorf("%s/%s:\n got %+v\nwant %+v", c.name, mode.name, got, want)
			}
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(fresh, "", " ")
		t.Logf("fresh table for these cases:\n%s", out)
	}
}

// TestGoldenTraceCorpus: every corpus query, in every store mode, still
// produces the rows, comparator count, trace-event count, peak bytes and
// canonical trace hash recorded for it in the golden table.
func TestGoldenTraceCorpus(t *testing.T) {
	checkGolden(t, corpusCases())
}

// TestGoldenTraceSizes checks the golden table at input sizes around
// the batch width — 1, B−1, B, B+1 and a many-batch 4096 — over a
// scan→filter→distinct→sort→limit chain (every row-stream operator).
func TestGoldenTraceSizes(t *testing.T) {
	checkGolden(t, streamChainCases())
}

// TestGoldenTraceJoinChain checks the golden table over the join
// hand-offs (a filter feeding a join, its pairs feeding a rekey source,
// that source feeding a second join) at the same sizes.
func TestGoldenTraceJoinChain(t *testing.T) {
	cases := joinChainCases()
	if testing.Short() {
		cases = cases[:len(cases)-1]
	}
	checkGolden(t, cases)
}

// TestGoldenTraceAggregates checks the golden table over GROUP BY and
// the §7 join aggregates at the boundary sizes.
func TestGoldenTraceAggregates(t *testing.T) {
	cases := aggregateCases()
	if testing.Short() {
		var small []goldenCase
		for _, c := range cases {
			if len(c.tables["t"]) < 4096 {
				small = append(small, c)
			}
		}
		cases = small
	}
	checkGolden(t, cases)
}

// collectSink accumulates a streamed result for comparison.
type collectSink struct {
	cols []string
	rows [][]string
}

func (c *collectSink) Columns(cols []string) error {
	c.cols = append([]string(nil), cols...)
	return nil
}

func (c *collectSink) Rows(rows [][]string) error {
	for _, r := range rows {
		c.rows = append(c.rows, append([]string(nil), r...))
	}
	return nil
}

// TestRunStreamSinkDelivery: sink-mode execution delivers the same
// columns and rows Run returns, with the same trace, and reports a peak
// no larger than the result-building run's.
func TestRunStreamSinkDelivery(t *testing.T) {
	rows := make([]table.Row, 1000)
	for i := range rows {
		rows[i] = table.Row{J: uint64(i % 31), D: table.MustData(fmt.Sprintf("v%d", i))}
	}
	tables := map[string][]table.Row{"t": rows, "u": rows[:31]}
	queries := []struct {
		sql string
		// strictPeak marks queries whose peak is the built result
		// itself, so sink delivery must strictly lower it.
		strictPeak bool
	}{
		{"SELECT key, data FROM t", true},
		{"SELECT key, data FROM t WHERE key >= 4 ORDER BY key", false},
		// Join output reaches Project as a whole relation, not a stream.
		{"SELECT key, left.data, right.data FROM t JOIN u USING (key)", false},
	}
	for _, qc := range queries {
		pipeline := lowerSQL(t, qc.sql, tables)
		opts := Options{TraceHash: true}
		res, ps, err := Run(context.Background(), opts, nil, tables, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		sink := &collectSink{}
		sps, err := RunStream(context.Background(), opts, nil, tables, pipeline, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sink.cols, res.Columns) || !reflect.DeepEqual(sink.rows, res.Rows) {
			t.Fatalf("%q: sink delivery diverges from the returned result", qc.sql)
		}
		if sps.TraceHash != ps.TraceHash {
			t.Fatalf("%q: sink trace hash %s != run trace hash %s", qc.sql, sps.TraceHash, ps.TraceHash)
		}
		if sps.PeakBytes > ps.PeakBytes {
			t.Fatalf("%q: sink peak %d above result-materializing peak %d", qc.sql, sps.PeakBytes, ps.PeakBytes)
		}
		if qc.strictPeak && sps.PeakBytes >= ps.PeakBytes {
			t.Fatalf("%q: sink peak %d not below result-materializing peak %d", qc.sql, sps.PeakBytes, ps.PeakBytes)
		}
	}
}

// lowerSQL parses, plans and lowers sql against tables.
func lowerSQL(t *testing.T, sql string, tables map[string][]table.Row) []exec.Operator {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{})
	for name, rows := range tables {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline
}

// TestStreamBatchWidthAlignment: the one batch width is a positive
// multiple of the sealed block width, so a batch boundary never splits
// a ciphertext block.
func TestStreamBatchWidthAlignment(t *testing.T) {
	if b := exec.DefaultBatch; b <= 0 || b%table.DefaultSealedBlock != 0 {
		t.Fatalf("DefaultBatch = %d, not a positive multiple of the sealed block width %d", b, table.DefaultSealedBlock)
	}
}

// TestStreamedCancellation: a pre-cancelled context aborts a run with
// the typed sentinel before it assembles anything.
func TestStreamedCancellation(t *testing.T) {
	rows := make([]table.Row, 4096)
	for i := range rows {
		rows[i] = table.Row{J: uint64(i), D: table.MustData("x")}
	}
	q, err := Parse("SELECT DISTINCT key, data FROM t ORDER BY key")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{})
	if err := e.Register("t", rows); err != nil {
		t.Fatal(err)
	}
	plan, err := e.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = Run(ctx, Options{}, nil, map[string][]table.Row{"t": rows}, pipeline)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// tamperedStore is a test-only Streamer stage that fails the way a
// sealed store fails when the untrusted memory under it was tampered
// with: a typed *table.Fault panic from inside the operator stack.
type tamperedStore struct{}

func (tamperedStore) Name() string { return "tampered-store" }

func (tamperedStore) RunStream(*exec.Context, exec.RowSource) (exec.RowSource, error) {
	panic(&table.Fault{Err: fmt.Errorf("%w: block 0: injected", table.ErrSealedAuth)})
}

// TestSealedFaultContained: a storage fault raised mid-pipeline kills
// that run alone — Run returns an error matching table.ErrSealedAuth
// instead of panicking — and the next run of the unmodified pipeline
// reproduces the golden rows and trace hash.
func TestSealedFaultContained(t *testing.T) {
	const sql = "SELECT key, left.data, right.data FROM a JOIN b USING (key)"
	c := goldenCase{"corpus/" + sql, sql, corpusCatalog("x")}
	want, ok := loadGolden(t)[c.name+"\x1fblock-sealed"]
	if !ok {
		t.Fatalf("%s: no golden entry", c.name)
	}
	pipeline := lowerSQL(t, c.sql, c.tables)
	if _, ok := pipeline[0].(exec.Scan); !ok {
		t.Fatalf("pipeline starts with %s, not a scan", pipeline[0].Name())
	}
	tampered := append([]exec.Operator{pipeline[0], tamperedStore{}}, pipeline[1:]...)

	cipher, _, err := crypto.NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Encrypted: true, TraceHash: true}
	if _, _, err := Run(context.Background(), o, cipher, c.tables, tampered); !errors.Is(err, table.ErrSealedAuth) {
		t.Fatalf("tampered run = %v, want ErrSealedAuth", err)
	}
	res, ps, err := Run(context.Background(), o, cipher, c.tables, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsHash(res); got != want.Rows || ps.TraceHash != want.TraceHash {
		t.Fatalf("run after the fault: rows %s trace %s, want %s / %s", got, ps.TraceHash, want.Rows, want.TraceHash)
	}
}

// TestStreamerInterfaces pins which operators turn one row stream into
// the next, which consume one into a materialized relation, and which
// take a materialized relation.
func TestStreamerInterfaces(t *testing.T) {
	for _, op := range []exec.Operator{exec.Filter{}, exec.Distinct{}, exec.Sort{}, exec.Semijoin{}, exec.Limit{}} {
		if _, ok := op.(exec.Streamer); !ok {
			t.Fatalf("%T does not implement Streamer", op)
		}
	}
	for _, op := range []exec.Operator{exec.Join{}, exec.GroupBy{}, exec.JoinAggregate{}} {
		if _, ok := op.(exec.Feeder); !ok {
			t.Fatalf("%T does not implement Feeder", op)
		}
	}
	for _, op := range []exec.Operator{exec.Restore{}, exec.Limit{}, exec.Project{}, exec.Sort{Free: true}} {
		if _, ok := op.(exec.Whole); !ok {
			t.Fatalf("%T does not implement Whole", op)
		}
	}
	for _, op := range []exec.Operator{exec.Scan{}, exec.Filter{}, exec.Distinct{}, exec.Semijoin{}, exec.Rekey{}, exec.Join{}, exec.GroupBy{}, exec.JoinAggregate{}} {
		if _, ok := op.(exec.Whole); ok {
			t.Fatalf("%T still has a whole-relation form", op)
		}
	}
}
