package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
	"oblivjoin/internal/workload"
)

// This file is the closed-loop load generator behind cmd/oloadgen: C
// client goroutines issue queries back to back against an in-process
// admission-controlled Service until a fixed per-scenario operation
// budget is spent, then the service drains through Shutdown. The
// workload is deterministic — table contents come from the seeded
// internal/workload generators and client c executes exactly the
// operations {c, c+C, c+2C, …} of a fixed query rotation — so two runs
// on the same host execute the same queries in the same per-client
// order; only the interleaving (and therefore the latency sample) is
// the machine's.
//
// Beyond throughput and latency percentiles the run is a correctness
// harness for the serving layer under traffic: every completed
// query's canonical trace hash is compared against a sequential
// single-worker reference (the obliviousness/determinism story must
// survive concurrency, admission queuing and neighbors being
// rejected), and the goroutine count after Shutdown is compared
// against the pre-load baseline (the admission queue and the
// cancellation paths must not leak). CI runs the short mode and fails
// on either signal.

// LoadScenario is one family of tables plus a query rotation over
// them. Tables must be deterministic in (n, seed).
type LoadScenario struct {
	Name    string
	Tables  func(n int, seed int64) map[string][]table.Row
	Queries []string
	// MemBudget, when positive, caps every query's tracked memory at
	// this many bytes, diverting over-budget intermediates to sealed
	// spill files — the scenario then exercises the spill path under
	// concurrent traffic (and the trace check verifies spilling never
	// changes a canonical trace).
	MemBudget int64
}

// shortRows rewrites rows with compact tagged payloads (≤ 4 chars) so
// multi-join rekey chains stay inside the fixed table.DataLen width.
func shortRows(rows []table.Row, tag byte) []table.Row {
	out := make([]table.Row, len(rows))
	for i, r := range rows {
		out[i] = table.Row{J: r.J, D: table.MustData(fmt.Sprintf("%c%d", tag, i%1000))}
	}
	return out
}

// LoadScenarios returns the scenario families, covering the paper's
// evaluation input classes (§6): uniform keys, power-law group sizes,
// primary–foreign key references, a mixed SQL rotation with join
// chains and aggregates, and a memory-budgeted rotation that forces
// every query through the sealed spill path.
func LoadScenarios() []LoadScenario {
	return []LoadScenario{
		{
			Name: "uniform",
			Tables: func(n int, seed int64) map[string][]table.Row {
				t1, t2 := workload.Uniform(n, n, n, seed)
				return map[string][]table.Row{"t1": shortRows(t1, 'a'), "t2": shortRows(t2, 'b')}
			},
			Queries: []string{
				"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key)",
				"SELECT key FROM t1 WHERE key < 128",
				"SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
			},
		},
		{
			Name: "powerlaw",
			Tables: func(n int, seed int64) map[string][]table.Row {
				t1, t2 := workload.PowerLaw(2*n, 2.0, seed)
				return map[string][]table.Row{"t1": shortRows(t1, 'a'), "t2": shortRows(t2, 'b')}
			},
			Queries: []string{
				"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key)",
				"SELECT DISTINCT key FROM t1",
				"SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
			},
		},
		{
			Name: "pkfk",
			Tables: func(n int, seed int64) map[string][]table.Row {
				pk, fk := workload.PKFK(n/4+1, n, seed)
				return map[string][]table.Row{"pk": shortRows(pk, 'p'), "fk": shortRows(fk, 'f')}
			},
			Queries: []string{
				"SELECT key, left.data, right.data FROM pk JOIN fk USING (key)",
				"SELECT key, COUNT(*) FROM fk GROUP BY key",
				"SELECT key FROM fk WHERE key IN (SELECT key FROM pk)",
			},
		},
		{
			Name: "mixed",
			Tables: func(n int, seed int64) map[string][]table.Row {
				t1, t2 := workload.MatchingPairs(n)
				return map[string][]table.Row{
					"t1": shortRows(t1, 'a'),
					"t2": shortRows(t2, 'b'),
					"t3": shortRows(t1, 'c'),
				}
			},
			Queries: []string{
				"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key)",
				"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key) JOIN t3 USING (key)",
				"SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
				"SELECT key FROM t1 WHERE key > 4 AND key <= 200 ORDER BY key LIMIT 64",
				"SELECT DISTINCT key FROM t2",
			},
		},
		{
			// spill runs a join-heavy rotation under a 256 KiB per-query
			// memory budget: at the default n=2048 every join's combined
			// table alone (2n entries) exceeds the budget, so each query
			// crosses the sealed spill path while neighbors do the same
			// concurrently. The trace check compares against an
			// unbudgeted sequential reference, so this scenario is also
			// the under-traffic proof that spilling never changes a
			// canonical trace.
			Name:      "spill",
			MemBudget: 256 << 10,
			Tables: func(n int, seed int64) map[string][]table.Row {
				t1, t2 := workload.MatchingPairs(n)
				return map[string][]table.Row{"t1": shortRows(t1, 'a'), "t2": shortRows(t2, 'b')}
			},
			Queries: []string{
				"SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key) ORDER BY key",
				"SELECT DISTINCT key, data FROM t1 ORDER BY key",
				"SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
			},
		},
	}
}

// LoadConfig parameterizes one RunLoad invocation.
type LoadConfig struct {
	// Scenarios selects scenario families by name; empty means all.
	Scenarios []string
	// N is the per-table row count handed to the generators.
	N int
	// Clients is the closed-loop concurrency: each client issues its
	// share of Ops back to back.
	Clients int
	// Ops is the per-scenario operation budget.
	Ops int
	// Workers labels the record; execution is sequential.
	Workers int
	// MaxInFlight/Queue bound admission (see service.Config); 0 =
	// unbounded / default.
	MaxInFlight int
	Queue       int
	// Timeout is the per-query deadline (0 = none).
	Timeout time.Duration
	// Seed drives the table generators.
	Seed int64
	// Encrypted runs the service with AES-sealed intermediate stores.
	Encrypted bool
	// CheckTraces compares every completed query's canonical trace
	// hash against a sequential single-worker reference.
	CheckTraces bool
}

// LoadResult is one scenario's machine-readable record in
// BENCH_service.json. The *_ns metrics ride the benchdiff regression
// gate keyed on (scenario, clients, workers, n).
type LoadResult struct {
	Scenario    string `json:"scenario"`
	N           int    `json:"n"`
	Clients     int    `json:"clients"`
	Workers     int    `json:"workers"`
	MaxInFlight int    `json:"max_inflight"`
	Queue       int    `json:"queue"`
	Ops         int    `json:"ops"`

	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	Canceled  int `json:"canceled"`
	Failed    int `json:"failed"`

	WallNS        int64   `json:"wall_ns"`
	ThroughputQPS float64 `json:"throughput_qps"`
	P50NS         int64   `json:"p50_ns"`
	P95NS         int64   `json:"p95_ns"`
	P99NS         int64   `json:"p99_ns"`
	RejectionRate float64 `json:"rejection_rate"`

	// PeakBytes is the largest per-query allocation-gauge peak among
	// the completed queries — deterministic for a fixed rotation, so
	// benchdiff gates it like the latency percentiles.
	PeakBytes int64 `json:"peak_bytes"`
	// SpillQueries counts completed queries that diverted at least one
	// store to a spill file; positive for the spill scenario, zero
	// elsewhere.
	SpillQueries int `json:"spill_queries,omitempty"`

	GoroutineBase int `json:"goroutine_base"`
	GoroutineHWM  int `json:"goroutine_hwm"`
	// GoroutineLeak is goroutines alive after Shutdown minus the
	// pre-load baseline; any positive value is a leak. CI gates on 0.
	GoroutineLeak int `json:"goroutine_leak"`

	TraceChecked     int  `json:"trace_checked"`
	TraceMismatches  int  `json:"trace_mismatches"`
	TraceHashesMatch bool `json:"trace_hashes_match"`

	Encrypted  bool `json:"encrypted"`
	GOMAXPROCS int  `json:"gomaxprocs"`
}

// selected filters the scenario families by cfg.Scenarios.
func selected(cfg LoadConfig) ([]LoadScenario, error) {
	all := LoadScenarios()
	if len(cfg.Scenarios) == 0 {
		return all, nil
	}
	byName := map[string]LoadScenario{}
	for _, sc := range all {
		byName[sc.Name] = sc
	}
	var out []LoadScenario
	for _, name := range cfg.Scenarios {
		sc, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("exp: unknown load scenario %q", name)
		}
		out = append(out, sc)
	}
	return out, nil
}

// RunLoad drives every selected scenario through the closed loop and
// returns one record per scenario. It fails only on setup errors (bad
// scenario name, reference run failure) — query-level failures,
// mismatches and leaks are reported in the records, where callers
// (cmd/oloadgen -check, the exp tests) decide what gates.
func RunLoad(w io.Writer, cfg LoadConfig) ([]LoadResult, error) {
	scenarios, err := selected(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = cfg.Clients
	}
	fmt.Fprintf(w, "load — closed loop, %d clients × %d ops/scenario, n=%d, workers=%d, max-inflight=%d, queue=%d\n",
		cfg.Clients, cfg.Ops, cfg.N, cfg.Workers, cfg.MaxInFlight, cfg.Queue)
	fmt.Fprintf(w, "%-10s %9s %9s %8s %8s %8s %10s %10s %10s %7s %6s\n",
		"scenario", "completed", "rejected", "cancel", "failed", "qps", "p50", "p95", "p99", "leak", "trace")
	var out []LoadResult
	for _, sc := range scenarios {
		r, err := runScenario(cfg, sc)
		if err != nil {
			return nil, err
		}
		traceCol := "off"
		if cfg.CheckTraces {
			traceCol = "ok"
			if !r.TraceHashesMatch {
				traceCol = "FAIL"
			}
		}
		fmt.Fprintf(w, "%-10s %9d %9d %8d %8d %8.1f %10s %10s %10s %7d %6s\n",
			r.Scenario, r.Completed, r.Rejected, r.Canceled, r.Failed, r.ThroughputQPS,
			time.Duration(r.P50NS).Round(time.Microsecond),
			time.Duration(r.P95NS).Round(time.Microsecond),
			time.Duration(r.P99NS).Round(time.Microsecond),
			r.GoroutineLeak, traceCol)
		out = append(out, r)
	}
	return out, nil
}

// referenceHashes runs every query of the rotation once, sequentially
// on a plain store, and records the canonical trace hash each completed
// load query must reproduce.
func referenceHashes(tables map[string][]table.Row, queries []string) (map[string]string, error) {
	eng := query.NewEngineWith(query.Options{TraceHash: true, CollectStats: true})
	for name, rows := range tables {
		if err := eng.Register(name, rows); err != nil {
			return nil, err
		}
	}
	ref := map[string]string{}
	for _, sql := range queries {
		if _, err := eng.Query(sql); err != nil {
			return nil, fmt.Errorf("reference run of %q: %w", sql, err)
		}
		ref[sql] = eng.LastStats().TraceHash
	}
	return ref, nil
}

func runScenario(cfg LoadConfig, sc LoadScenario) (LoadResult, error) {
	tables := sc.Tables(cfg.N, cfg.Seed)
	r := LoadResult{
		Scenario: sc.Name, N: cfg.N, Clients: cfg.Clients, Workers: cfg.Workers,
		MaxInFlight: cfg.MaxInFlight, Queue: cfg.Queue, Ops: cfg.Ops,
		Encrypted: cfg.Encrypted, GOMAXPROCS: runtime.GOMAXPROCS(0),
		TraceHashesMatch: true,
	}

	var ref map[string]string
	if cfg.CheckTraces {
		var err error
		if ref, err = referenceHashes(tables, sc.Queries); err != nil {
			return r, fmt.Errorf("exp: load %s: %w", sc.Name, err)
		}
	}

	svc, err := service.New(service.Config{
		Defaults: query.Options{
			Encrypted:    cfg.Encrypted,
			CollectStats: true,
			TraceHash:    cfg.CheckTraces,
			MemBudget:    sc.MemBudget,
		},
		MaxInFlight:  cfg.MaxInFlight,
		MaxQueue:     cfg.Queue,
		QueryTimeout: cfg.Timeout,
	})
	if err != nil {
		return r, err
	}
	for name, rows := range tables {
		if err := svc.Register(name, rows); err != nil {
			return r, err
		}
	}
	// Warm up: one sequential pass over the rotation primes the plan
	// cache, so the goroutine baseline below
	// reflects steady state, not lazy initialization.
	for _, sql := range sc.Queries {
		if _, _, err := svc.Query(context.Background(), sql); err != nil {
			return r, fmt.Errorf("exp: load %s warmup %q: %w", sc.Name, sql, err)
		}
	}
	runtime.Gosched()
	r.GoroutineBase = runtime.NumGoroutine()

	var (
		mu        sync.Mutex
		latencies []int64
		hwm       int
	)
	sample := func() {
		if g := runtime.NumGoroutine(); g > hwm {
			hwm = g
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < cfg.Ops; k += cfg.Clients {
				sql := sc.Queries[k%len(sc.Queries)]
				t0 := time.Now()
				_, ps, err := svc.Query(context.Background(), sql)
				d := time.Since(t0)
				mu.Lock()
				sample()
				switch {
				case err == nil:
					r.Completed++
					latencies = append(latencies, d.Nanoseconds())
					if ps != nil {
						if ps.PeakBytes > r.PeakBytes {
							r.PeakBytes = ps.PeakBytes
						}
						if ps.SpillCount > 0 {
							r.SpillQueries++
						}
					}
					if cfg.CheckTraces {
						r.TraceChecked++
						if ps == nil || ps.TraceHash != ref[sql] {
							r.TraceMismatches++
						}
					}
				case errors.Is(err, service.ErrOverloaded):
					r.Rejected++
				case errors.Is(err, query.ErrCanceled), errors.Is(err, query.ErrDeadline):
					r.Canceled++
				default:
					r.Failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	r.WallNS = wall.Nanoseconds()
	if wall > 0 {
		r.ThroughputQPS = float64(r.Completed) / wall.Seconds()
	}
	if cfg.Ops > 0 {
		r.RejectionRate = float64(r.Rejected) / float64(cfg.Ops)
	}
	r.TraceHashesMatch = r.TraceMismatches == 0
	r.P50NS, r.P95NS, r.P99NS = service.LatencyPercentiles(latencies)
	st := svc.Stats()
	r.GoroutineHWM = st.GoroutineHWM
	if hwm > r.GoroutineHWM {
		r.GoroutineHWM = hwm
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		return r, fmt.Errorf("exp: load %s: %w", sc.Name, err)
	}
	r.GoroutineLeak = settleGoroutines(r.GoroutineBase)
	return r, nil
}

// WriteLoadJSON writes the load records as indented JSON to path.
func WriteLoadJSON(path string, results []LoadResult) error {
	return writeJSON(path, results)
}

// MergeBest folds repeated runs of the same configuration into one
// record per scenario by taking the per-metric minimum of the timing
// fields (wall, percentiles) and the maximum of the failure signals
// (goroutine leak/HWM). The workload is deterministic, so runs differ
// only in scheduler noise; the minimum estimates the noise floor,
// which is what a regression ratchet should compare — single-run tail
// percentiles carry enough jitter to trip a ±25% gate on identical
// code. Trace verification accumulates across every run (so
// trace_checked can exceed ops, and a mismatch in ANY run fails);
// the outcome counts (completed, rejected, …) come from the first
// run alone.
func MergeBest(runs ...[]LoadResult) []LoadResult {
	if len(runs) == 0 {
		return nil
	}
	out := append([]LoadResult(nil), runs[0]...)
	for _, run := range runs[1:] {
		byName := map[string]LoadResult{}
		for _, r := range run {
			byName[r.Scenario] = r
		}
		for i := range out {
			r, ok := byName[out[i].Scenario]
			if !ok {
				continue
			}
			minNS := func(dst *int64, v int64) {
				if v < *dst {
					*dst = v
				}
			}
			minNS(&out[i].WallNS, r.WallNS)
			minNS(&out[i].P50NS, r.P50NS)
			minNS(&out[i].P95NS, r.P95NS)
			minNS(&out[i].P99NS, r.P99NS)
			if r.ThroughputQPS > out[i].ThroughputQPS {
				out[i].ThroughputQPS = r.ThroughputQPS
			}
			if r.GoroutineLeak > out[i].GoroutineLeak {
				out[i].GoroutineLeak = r.GoroutineLeak
			}
			if r.GoroutineHWM > out[i].GoroutineHWM {
				out[i].GoroutineHWM = r.GoroutineHWM
			}
			// Deterministic gauges: equal across runs by construction;
			// the max is a cheap cross-run consistency fold.
			if r.PeakBytes > out[i].PeakBytes {
				out[i].PeakBytes = r.PeakBytes
			}
			if r.SpillQueries > out[i].SpillQueries {
				out[i].SpillQueries = r.SpillQueries
			}
			out[i].TraceChecked += r.TraceChecked
			out[i].TraceMismatches += r.TraceMismatches
			out[i].TraceHashesMatch = out[i].TraceHashesMatch && r.TraceHashesMatch
		}
	}
	return out
}

// settleGoroutines polls the goroutine count for up to two seconds and
// returns its excess over base — the leak a drained service must not
// have. The poll loop tolerates the runtime's asynchronous goroutine
// teardown (a goroutine that returned may be counted for a few more
// scheduler ticks).
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= base || time.Now().After(deadline) {
			return g - base
		}
		time.Sleep(10 * time.Millisecond)
	}
}
