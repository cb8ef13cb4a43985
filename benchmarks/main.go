// Command benchmarks is the repository's benchmark: four closed-loop
// workloads over the oblivious join and the SQL serving stack, each
// checked against a plain-Go oracle, reporting end-to-end metrics from
// an untraced run and per-layer metrics from a traced one. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order a run without
// -workload executes them.
var workloadNames = []string{"join-plain", "join-sealed", "sql-serve", "sql-durable-rw"}

// checkCounts counts the correctness checks a run performed.
type checkCounts struct {
	oracle, traceHash, durability atomic.Int64
}

// loopResult is the outcome of one timed closed loop.
type loopResult struct {
	lat       map[string][]float64 // op class → latencies in ms
	attempted int
	failed    int
	firstErr  error
	bytes     int64 // response bytes received
	wall      time.Duration
}

func (lr *loopResult) record(class string, d time.Duration, err error) {
	lr.attempted++
	if err != nil {
		lr.failed++
		if lr.firstErr == nil {
			lr.firstErr = err
		}
		return
	}
	if lr.lat == nil {
		lr.lat = map[string][]float64{}
	}
	lr.lat[class] = append(lr.lat[class], ms(d))
}

func (lr *loopResult) merge(o *loopResult) {
	if lr.lat == nil {
		lr.lat = map[string][]float64{}
	}
	for class, xs := range o.lat {
		lr.lat[class] = append(lr.lat[class], xs...)
	}
	lr.attempted += o.attempted
	lr.failed += o.failed
	lr.bytes += o.bytes
	if lr.firstErr == nil {
		lr.firstErr = o.firstErr
	}
}

// samples returns the latencies of every class but the excluded one.
func (lr *loopResult) samples(exclude string) []float64 {
	var xs []float64
	for class, l := range lr.lat {
		if class != exclude {
			xs = append(xs, l...)
		}
	}
	return xs
}

func (lr *loopResult) completed() int { return lr.attempted - lr.failed }

// runner is what the two kinds of workload (join, SQL) share.
type runner interface {
	// setup generates inputs from the seed, builds the engine, computes
	// reference results, runs the set-up checks and warms up.
	setup(seed int64) error
	close()
	// measure runs the untraced closed loop.
	measure(d time.Duration, minOps int) loopResult
	// opLatencies picks the latencies of the workload's operation, the
	// one op_p50_ms and op_p90_ms describe, out of a loop's samples.
	opLatencies(lr *loopResult) []float64
	// layers runs the traced pass and fills the per-layer metrics.
	layers(d time.Duration, minOps int, tr *tracer, rep *report) (loopResult, error)
	// verify runs the checks that follow the timed phase.
	verify() error
	describe() map[string]int
	counts() *checkCounts
	peakBytes() int64
}

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workDir  string // scratch inside the checkout
	outDir   string // where trace files go
}

// clients is the number of concurrent closed-loop clients of the SQL
// workloads: never more than the machine has processors.
func clients() int { return min(2, runtime.NumCPU()) }

func newWorkload(cfg runConfig) (runner, error) {
	// Sizes are the issue's, halved until a run of the contract's
	// length completes well over 100 operations on a 2-core machine
	// (the hot tables once more, so the WAL is a visible share of a
	// write).
	joinN := map[string]int{"join-plain": 2048, "join-sealed": 512}
	sql := sqlSizes{dim: 64, mid: 512, fact: 2048, read: 128, hot: 64}
	if cfg.smoke {
		joinN = map[string]int{"join-plain": 64, "join-sealed": 32}
		sql = sqlSizes{dim: 8, mid: 32, fact: 128, read: 16, hot: 32}
	}
	switch cfg.workload {
	case "join-plain", "join-sealed":
		return &joinWorkload{sealed: cfg.workload == "join-sealed", n: joinN[cfg.workload], smoke: cfg.smoke}, nil
	case "sql-serve", "sql-durable-rw":
		return &sqlWorkload{durable: cfg.workload == "sql-durable-rw", sz: sql,
			clients: clients(), workDir: cfg.workDir, seed: cfg.seed, smoke: cfg.smoke}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// envHeader says where and how a record was taken.
type envHeader struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// record is one run's full result: what -json appends and -compare
// reads.
type record struct {
	Env       envHeader              `json:"env"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checks    map[string]int64       `json:"checks"`
	Sizes     map[string]int         `json:"sizes"`
	Samples   map[string]int         `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	Omitted   map[string]string      `json:"omitted,omitempty"`
}

// buildCommit is the commit the binary was built from; run.sh sets it.
var buildCommit = "unknown"

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median.
const setupRepeats = 3

// runOnce executes one run of one workload and returns its record.
func runOnce(cfg runConfig) (*record, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	minOps := 100
	if cfg.smoke {
		minOps = 12
	}
	rec := &record{
		Env: envHeader{Commit: buildCommit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: 1, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke},
		Workload: cfg.workload, Trace: cfg.trace, Samples: map[string]int{},
	}
	defer w.close()

	var rep *report
	var lr loopResult
	if !cfg.trace {
		rep = newReport(endToEnd)
		var setups []float64
		for k := 0; k < setupRepeats; k++ {
			w.close()
			t0 := time.Now()
			if err := w.setup(cfg.seed); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		lr = w.measure(d, minOps)
		ops := w.opLatencies(&lr)
		rep.set("setup_s", median(setups))
		rep.set("op_p50_ms", percentile(ops, 0.50))
		rep.set("op_p90_ms", percentile(ops, 0.90))
		rep.set("ops_per_s", float64(lr.completed())/lr.wall.Seconds())
		rep.set("peak_tracked_mb", float64(w.peakBytes())/1e6)
	} else {
		rep = newReport(perLayer)
		if err := w.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		tr := newTracer()
		if lr, err = w.layers(d, minOps, tr, rep); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}
	if err := w.verify(); err != nil {
		return nil, err
	}

	if lr.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: %s: first failed op: %v\n", cfg.workload, lr.firstErr)
	}
	rec.Env.Clients = w.describe()["clients"]
	rec.Correct = lr.failed == 0
	rec.Attempted, rec.Failed = lr.attempted, lr.failed
	c := w.counts()
	rec.Checks = map[string]int64{"oracle": c.oracle.Load(), "trace_hash": c.traceHash.Load(), "durability": c.durability.Load()}
	rec.Sizes = w.describe()
	for class, xs := range lr.lat {
		rec.Samples[class] = len(xs)
	}
	rec.Metrics = rep.metrics()
	rec.Omitted = rep.notes

	fmt.Printf("%s seed=%d trace=%v sizes=%v\n", cfg.workload, cfg.seed, cfg.trace, rec.Sizes)
	fmt.Printf("  env: commit=%s %s numcpu=%d gomaxprocs=%d clients=%d\n",
		rec.Env.Commit, rec.Env.GoVersion, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.Clients)
	fmt.Printf("  ops: attempted=%d failed=%d samples=%v\n", rec.Attempted, rec.Failed, rec.Samples)
	fmt.Printf("  checks: oracle=%d trace_hash=%d durability=%d\n", rec.Checks["oracle"], rec.Checks["trace_hash"], rec.Checks["durability"])
	rep.print(os.Stdout)
	return rec, nil
}

// procUsage is a reading of the process's resource counters.
type procUsage struct {
	mallocs, allocBytes, gcPauseNS uint64
	cpu                            time.Duration
	maxRSSKB                       int64
}

func readProc() procUsage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := procUsage{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcPauseNS: m.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSKB = int64(ru.Maxrss)
	}
	return u
}

// setProc reports the process-level metrics of the interval between
// two readings that ran ops operations over wall.
func setProc(rep *report, before, after procUsage, ops int, wall time.Duration) {
	n := float64(max(ops, 1))
	rep.set("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	rep.set("proc.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/1e6/n)
	rep.set("proc.gc_pause_ms", float64(after.gcPauseNS-before.gcPauseNS)/1e6)
	rep.set("proc.rss_peak_mb", float64(after.maxRSSKB)/1e3)
	cpu := (after.cpu - before.cpu).Seconds()
	rep.set("proc.cpu_s", cpu)
	rep.set("proc.cpu_util", cpu/wall.Seconds()/float64(runtime.NumCPU()))
}

// parallelOK reports whether a parallel ratio can be measured; at
// GOMAXPROCS = 1 it records why the named metrics stay 0.
func parallelOK(rep *report, names ...string) bool {
	if runtime.GOMAXPROCS(0) > 1 {
		return true
	}
	rep.omit("GOMAXPROCS = 1: a parallel ratio measured on one processor says nothing", names...)
	fmt.Fprintf(os.Stderr, "benchmarks: GOMAXPROCS = 1, not reporting %v\n", names)
	return false
}

func main() {
	var cfg runConfig
	var traceFlag int
	var jsonPath string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four): "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes and iteration counts: a functional pass, not a measurement")
	flag.StringVar(&jsonPath, "json", "", "append each run's full record to this file, one JSON object per line")
	flag.BoolVar(&compare, "compare", false, "compare two -json files: benchmarks -compare a.json b.json")
	flag.Parse()
	// Both paths are relative to the repository root, where run.sh
	// starts the program.
	cfg.workDir, cfg.outDir = ".bench_build/work", "benchmarks/out"

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmarks -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg.trace = traceFlag != 0
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, name := range names {
		cfg.workload = name
		rec, err := runOnce(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmarks: %s: %v\n", name, err)
			os.Exit(1)
		}
		if jsonPath != "" {
			if err := appendRecord(jsonPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmarks:", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(map[string]any{
			"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
