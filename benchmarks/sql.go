package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivjoin/internal/fault"
	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
)

// sqlShape is one query shape of a rotation. sql(0) is the text the
// plan cache keeps hot; sql(u) for u > 0 moves a literal inside a key
// gap — a text the cache has never seen, with the same result.
type sqlShape struct {
	name    string
	sql     func(u uint64) string
	want    [][]string
	ordered bool
	// print is the FNV-64 of the verified response's columns-and-rows
	// bytes; timed responses are checked against it.
	print uint64
}

// sqlWorkload is sql-serve or sql-durable-rw: closed-loop keep-alive
// HTTP clients against service.NewHandler behind a loopback server.
type sqlWorkload struct {
	durable bool
	sz      sqlSizes
	clients int
	workDir string // scratch root inside the checkout

	tabs    *sqlTables
	shapes  []*sqlShape
	svc     *service.Service
	srv     *httptest.Server
	fs      *countingFS
	dataDir string
	tr      atomic.Pointer[tracer] // set while a traced loop runs
	peak    int64
	checks  checkCounts
	seed    int64
	smoke   bool
	// verified is set once the durability check has run on the current
	// state of the data directory.
	verified bool

	// Durable bookkeeping: commits acknowledged so far (set-up included)
	// and each client's last acknowledged write.
	commits   int
	userBytes int64
	lastWrite []int
}

func (w *sqlWorkload) describe() map[string]int {
	d := map[string]int{"clients": w.clients, "workers": 1, "shapes": len(w.shapes)}
	if w.durable {
		d["read_rows"], d["hot_rows"] = w.sz.read, w.sz.hot
	} else {
		d["dim"], d["mid"], d["fact"] = w.sz.dim, w.sz.mid, w.sz.fact
	}
	return d
}

func (w *sqlWorkload) counts() *checkCounts { return &w.checks }
func (w *sqlWorkload) peakBytes() int64     { return w.peak }

func (w *sqlWorkload) measure(d time.Duration, minOps int) loopResult {
	lr, _, _ := w.loop(d, minOps, nil)
	return lr
}

// opLatencies picks the workload's operation out of a loop's samples:
// the queries. The writes of sql-durable-rw count in ops_per_s and are
// reported by the traced run; their latency rides on the sandbox's
// fsync and does not repeat well enough to gate on.
func (w *sqlWorkload) opLatencies(lr *loopResult) []float64 { return lr.samples("write") }

// verify runs the durability check unless the traced pass already has.
func (w *sqlWorkload) verify() error {
	if !w.durable || w.verified {
		return nil
	}
	_, _, err := w.checkDurability()
	return err
}

// serviceConfig is the engine configuration of the workload: product
// defaults over a plain memory-only store for sql-serve, the full
// deployment configuration for sql-durable-rw. An empty dataDir keeps
// the durable configuration in memory; a nil fs is the plain OS.
func (w *sqlWorkload) serviceConfig(dataDir string, fs fault.FS) service.Config {
	if !w.durable {
		return service.Config{}
	}
	return service.Config{
		Defaults:      query.Options{Encrypted: true},
		SealedCatalog: true,
		DataDir:       dataDir,
		FS:            fs,
	}
}

func (w *sqlWorkload) serveShapes() []*sqlShape {
	t := w.tabs
	tb := t.tables
	guard := func(u uint64) string { return u64(t.above + u) }
	return []*sqlShape{
		{name: "point",
			sql: func(u uint64) string {
				return "SELECT key, data FROM dim WHERE key = " + u64(t.pointKey) + " AND key < " + guard(u)
			},
			want: refFilter(tb["dim"], func(k uint64) bool { return k == t.pointKey }, true)},
		{name: "range", ordered: true,
			sql: func(u uint64) string {
				return "SELECT key, data FROM mid WHERE key BETWEEN " + u64(t.rangeLo-u) + " AND " + u64(t.rangeHi+u) + " ORDER BY key LIMIT 32"
			},
			want: refRange(tb["mid"], t.rangeLo, t.rangeHi, 32)},
		{name: "semijoin",
			sql: func(u uint64) string {
				return "SELECT key, data FROM mid WHERE key IN (SELECT key FROM dim) AND key < " + guard(u)
			},
			want: refSemijoin(tb["mid"], tb["dim"])},
		{name: "join2",
			sql: func(u uint64) string {
				return "SELECT key, left.data, right.data FROM mid JOIN mid2 USING (key) WHERE key < " + guard(u)
			},
			want: refJoin(tb["mid"], tb["mid2"])},
		{name: "joincount",
			sql: func(u uint64) string {
				return "SELECT key, COUNT(*) FROM mid JOIN fact USING (key) WHERE key < " + guard(u) + " GROUP BY key"
			},
			want: refJoinCount(tb["mid"], tb["fact"])},
		{name: "chain3",
			sql: func(u uint64) string {
				return "SELECT key, left.data, right.data FROM dim JOIN mid USING (key) JOIN fact USING (key) WHERE key < " + guard(u)
			},
			want: refChain3(tb["dim"], tb["mid"], tb["fact"])},
		{name: "distinct",
			sql: func(u uint64) string {
				return "SELECT DISTINCT key, data FROM fact WHERE key < " + guard(u)
			},
			want: refDistinct(tb["fact"])},
	}
}

// durableShapes are the reads of sql-durable-rw, over the two tables
// the writers leave alone: results are fixed while every commit moves
// the catalog version under them.
func (w *sqlWorkload) durableShapes() []*sqlShape {
	t := w.tabs
	tb := t.tables
	guard := func(u uint64) string { return u64(t.above + u) }
	return []*sqlShape{
		{name: "join2",
			sql: func(u uint64) string {
				return "SELECT key, left.data, right.data FROM a JOIN b USING (key) WHERE key < " + guard(u)
			},
			want: refJoin(tb["a"], tb["b"])},
		{name: "joincount",
			sql: func(u uint64) string {
				return "SELECT key, COUNT(*) FROM a JOIN b USING (key) WHERE key < " + guard(u) + " GROUP BY key"
			},
			want: refJoinCount(tb["a"], tb["b"])},
		{name: "range",
			sql: func(u uint64) string {
				return "SELECT key, data FROM a WHERE key BETWEEN " + u64(t.rangeLo-u) + " AND " + u64(t.rangeHi+u)
			},
			want: refFilter(tb["a"], func(k uint64) bool { return k >= t.rangeLo && k <= t.rangeHi }, true)},
	}
}

// setup generates the tables and reference results, builds the engine,
// registers the tables, starts the loopback server, verifies every
// shape against its reference and warms up.
func (w *sqlWorkload) setup(seed int64) error {
	if w.durable {
		w.tabs = genDurableTables(w.sz, w.clients, seed)
		w.shapes = w.durableShapes()
		w.fs = newCountingFS()
		dir, err := os.MkdirTemp(w.workDir, "data-")
		if err != nil {
			return err
		}
		w.dataDir = dir
	} else {
		w.tabs = genServeTables(w.sz, seed)
		w.shapes = w.serveShapes()
	}
	svc, err := service.New(w.serviceConfig(w.dataDir, w.fs))
	if err != nil {
		return err
	}
	w.svc = svc
	w.commits, w.userBytes = 0, 0
	w.lastWrite = make([]int, w.clients)
	for _, name := range sortedKeys(w.tabs.tables) {
		if err := svc.Register(name, w.tabs.tables[name]); err != nil {
			return err
		}
		w.committed(len(w.tabs.tables[name]))
	}
	w.srv = httptest.NewServer(w.spanMiddleware(service.NewHandler(svc)))

	// Verify each shape — hot text and a never-seen literal — against
	// the plain-Go reference, with and without stats; the stats run
	// also yields the tracked-memory gauge.
	cl := w.newClient()
	w.peak = 0
	for _, sh := range w.shapes {
		for _, u := range []uint64{0, 1} {
			body, code, err := cl.query(sh.sql(u), true, "")
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("%s: status %d: %v: %s", sh.name, code, err, body)
			}
			var resp service.QueryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return fmt.Errorf("%s: %w", sh.name, err)
			}
			if err := sameRows(resp.Rows, sh.want, sh.ordered); err != nil {
				return fmt.Errorf("%s: %w", sh.name, err)
			}
			w.checks.oracle.Add(1)
			sh.print = fnv64(bodyPrefix(body))
			w.peak = max(w.peak, resp.Stats.PeakBytes)
			if _, err := w.read(cl, sh, u, 0); err != nil {
				return fmt.Errorf("%s without stats: %w", sh.name, err)
			}
		}
	}
	// Warm-up: a few untimed rounds of the rotation on every client
	// connection.
	var wg sync.WaitGroup
	errs := make([]error, w.clients)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.newClient()
			for i := 0; i < 3*len(w.shapes); i++ {
				if _, err := w.read(cl, w.shapes[i%len(w.shapes)], 0, 0); err != nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sqlWorkload) committed(rows int) {
	w.commits++
	w.userBytes += int64(rows) * (8 + table.DataLen)
}

func (w *sqlWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.svc != nil {
		_ = w.svc.Shutdown(context.Background()) // the data directory is discarded next
		w.svc = nil
	}
	if w.dataDir != "" {
		_ = os.RemoveAll(w.dataDir) // scratch; a leftover is emptied with the work directory
		w.dataDir = ""
	}
}

// benchClient is one keep-alive connection to the loopback server.
type benchClient struct {
	base string
	http *http.Client
}

func (w *sqlWorkload) newClient() *benchClient {
	return &benchClient{base: w.srv.URL, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

const spanHeader = "X-Bench-Span" // "<op>:<parent span id>", traced runs only

func (c *benchClient) post(path string, payload []byte, spanRef string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanRef != "" {
		req.Header.Set(spanHeader, spanRef)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (c *benchClient) query(sql string, stats bool, spanRef string) ([]byte, int, error) {
	payload := `{"sql":` + strconv.Quote(sql) + `}`
	if stats {
		payload = `{"sql":` + strconv.Quote(sql) + `,"stats":true}`
	}
	return c.post("/query", []byte(payload), spanRef)
}

// rootSpan opens the client-side root span of traced operation op and
// returns the reference the request carries to the server; op 0 is an
// untraced operation and gets neither.
func (w *sqlWorkload) rootSpan(op int, name string) (spanRef string, end func()) {
	if op == 0 {
		return "", func() {}
	}
	root, end := w.tr.Load().begin(op, 0, "http", name)
	return fmt.Sprintf("%d:%d", op, root), end
}

// opStats is what a traced read keeps of the response's stats object.
type opStats struct {
	op    int
	shape string
	stats service.StatsJSON
}

// read issues one query of shape sh and checks the response. With a
// non-zero op it is a traced read: a root span covers the client's
// wall, the request asks for stats, and the stats are kept for the
// derived exec spans.
func (w *sqlWorkload) read(cl *benchClient, sh *sqlShape, u uint64, op int) (opOutcome, error) {
	var out opOutcome
	traced := op != 0
	spanRef, endRoot := w.rootSpan(op, sh.name)
	t0 := time.Now()
	body, code, err := cl.query(sh.sql(u), traced, spanRef)
	out.wall = time.Since(t0)
	endRoot()
	out.bytes = len(body)
	if err != nil {
		return out, err
	}
	if code != http.StatusOK {
		return out, fmt.Errorf("%s: status %d: %s", sh.name, code, strings.TrimSpace(string(body)))
	}
	w.checks.oracle.Add(1)
	if fnv64(bodyPrefix(body)) != sh.print {
		return out, fmt.Errorf("%s: response differs from the verified result", sh.name)
	}
	if traced {
		i := bytes.LastIndex(body, []byte(`"stats": {`))
		var st service.StatsJSON
		if i < 0 || json.Unmarshal(bytes.TrimSuffix(body[i+len(`"stats": `):], []byte("\n}\n")), &st) != nil {
			return out, fmt.Errorf("%s: traced response carries no stats", sh.name)
		}
		out.stats = &opStats{op: op, shape: sh.name, stats: st}
	}
	return out, nil
}

// write replaces the client's hot table with the content of its next
// sequence number; an acknowledged write is recorded for the
// durability check.
func (w *sqlWorkload) write(cl *benchClient, c, seq, op int) (opOutcome, error) {
	var out opOutcome
	rows := hotRows(w.tabs.hotKeys, c, seq)
	req := service.TableRequest{Name: hotName(c), Replace: true, Rows: make([]service.RowJSON, len(rows))}
	for i, r := range rows {
		req.Rows[i] = service.RowJSON{Key: r.J, Data: table.DataString(r.D)}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	spanRef, endRoot := w.rootSpan(op, "write")
	t0 := time.Now()
	body, code, err := cl.post("/tables", payload, spanRef)
	out.wall = time.Since(t0)
	endRoot()
	out.bytes = len(body)
	if err != nil {
		return out, err
	}
	if code != http.StatusCreated {
		return out, fmt.Errorf("write: status %d: %s", code, strings.TrimSpace(string(body)))
	}
	return out, nil
}

// opOutcome is one HTTP operation's measurements.
type opOutcome struct {
	wall  time.Duration
	bytes int
	stats *opStats
}

// spanMiddleware records a handler span for requests that carry a span
// reference; other requests pass straight through.
func (w *sqlWorkload) spanMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		ref := r.Header.Get(spanHeader)
		tr := w.tr.Load()
		if ref == "" || tr == nil {
			next.ServeHTTP(rw, r)
			return
		}
		var op, parent int
		if _, err := fmt.Sscanf(ref, "%d:%d", &op, &parent); err != nil {
			http.Error(rw, "bad span reference", http.StatusBadRequest)
			return
		}
		_, end := tr.begin(op, parent, "service", "handler")
		next.ServeHTTP(rw, r)
		end()
	})
}

// opCycle returns one cycle of a client's operation sequence as shape
// indices (-1 is a write), freshly shuffled: every shape equally often
// on sql-serve; four reads of each shape and three writes, 20 %, on
// sql-durable-rw. Shuffling every cycle keeps the two clients from
// running in lockstep, where each shape would always meet the same
// neighbour on the other core.
func (w *sqlWorkload) opCycle(rng *rand.Rand) []int {
	var cycle []int
	for s := range w.shapes {
		cycle = append(cycle, s)
		if w.durable {
			cycle = append(cycle, s, s, s, -1)
		}
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// loop runs the closed loop on every client until both the duration
// and the minimum op count are reached. Each client draws its own
// seeded sequence of shuffled cycles; on sql-serve every fourth
// request carries a never-seen literal. With a tracer, each client
// traces every second operation, so the traced and untraced samples
// come from the same machine state.
func (w *sqlWorkload) loop(d time.Duration, minOps int, tr *tracer) (plain, spanned loopResult, stats []*opStats) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	w.verified = false
	type clientResult struct {
		plain, spanned loopResult
		stats          []*opStats
		writes         int
	}
	results := make([]clientResult, w.clients)
	perClient := (minOps + w.clients - 1) / w.clients
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.newClient()
			res := &results[c]
			rng := rand.New(rand.NewSource(w.seed*int64(w.clients) + int64(c)))
			var cycle []int
			for k := 0; time.Since(start) < d || k < perClient; k++ {
				if len(cycle) == 0 {
					cycle = w.opCycle(rng)
				}
				shape := cycle[0]
				cycle = cycle[1:]
				id := k*w.clients + c + 1 // unique across clients
				op, lr := 0, &res.plain
				if tr != nil && k%2 == 1 {
					op, lr = id, &res.spanned
				}
				if shape < 0 {
					seq := w.lastWrite[c] + 1
					out, err := w.write(cl, c, seq, op)
					if err == nil {
						w.lastWrite[c] = seq
						res.writes++
					}
					lr.record("write", out.wall, err)
					lr.bytes += int64(out.bytes)
					continue
				}
				sh := w.shapes[shape]
				var u uint64
				if !w.durable && k%4 == 3 {
					u = uint64(id + 1) // set-up used 1
				}
				out, err := w.read(cl, sh, u, op)
				lr.record(sh.name, out.wall, err)
				lr.bytes += int64(out.bytes)
				if out.stats != nil {
					res.stats = append(res.stats, out.stats)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range results {
		plain.merge(&results[c].plain)
		spanned.merge(&results[c].spanned)
		stats = append(stats, results[c].stats...)
		for k := 0; k < results[c].writes; k++ {
			w.committed(w.sz.hot)
		}
	}
	plain.wall = time.Since(start)
	spanned.wall = plain.wall
	return plain, spanned, stats
}

// copyFlushed copies data directory src as a crash would leave it:
// files written through the counting filesystem keep only the bytes
// that were fsynced.
func copyFlushed(fs *countingFS, src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(src, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		if n, tracked := fs.synced(path); tracked && n < int64(len(data)) {
			data = data[:n]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			return 0, err
		}
		total += int64(len(data))
	}
	return total, nil
}

// checkDurability copies the flushed bytes of the data directory while
// the engine is still open, reopens the copy five times and checks
// that the recovered catalog is at the last acknowledged version and
// that every client's hot table holds its last acknowledged write. It
// returns the reopen times and the stored bytes.
func (w *sqlWorkload) checkDurability() (reopenMS []float64, storedBytes int64, err error) {
	for k := 0; k < 5; k++ {
		dir := filepath.Join(w.workDir, fmt.Sprintf("recover-%d", k))
		defer os.RemoveAll(dir)
		if storedBytes, err = copyFlushed(w.fs, w.dataDir, dir); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		svc, err := service.New(w.serviceConfig(dir, nil))
		reopenMS = append(reopenMS, ms(time.Since(t0)))
		if err != nil {
			return nil, 0, fmt.Errorf("reopen %d: %w", k, err)
		}
		if got := svc.Version(); got != uint64(w.commits) {
			return nil, 0, fmt.Errorf("reopen %d: recovered version %d, %d commits were acknowledged", k, got, w.commits)
		}
		for c := 0; c < w.clients; c++ {
			rows, err := svc.Catalog().RowsAt(hotName(c), svc.Version())
			want := hotRows(w.tabs.hotKeys, c, w.lastWrite[c])
			if err != nil || len(rows) != len(want) || rows[0].D != want[0].D {
				return nil, 0, fmt.Errorf("reopen %d: %s does not hold acknowledged write %d: %v", k, hotName(c), w.lastWrite[c], err)
			}
		}
		w.checks.durability.Add(1)
		if err := svc.Shutdown(context.Background()); err != nil {
			return nil, 0, err
		}
	}
	w.verified = true
	return reopenMS, storedBytes, nil
}

func sortedKeys(m map[string][]table.Row) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
