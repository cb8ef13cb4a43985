// Command oloadgen drives the in-process query service with a
// deterministic closed-loop load and emits a BENCH_service.json perf
// record: throughput, latency percentiles, rejection rate and the
// goroutine high-water mark per workload scenario.
//
// Usage:
//
//	oloadgen [flags]
//
//	-scenarios list  comma-separated scenario families: uniform,
//	                 powerlaw, pkfk, mixed, spill (default all; spill
//	                 runs its rotation under a 256 KiB per-query memory
//	                 budget, forcing the sealed spill path)
//	-n int           rows per generated table (default 2048)
//	-clients int     closed-loop client goroutines (default 8)
//	-ops int         operations per scenario (default 96)
//	-workers int     label for the record; execution is sequential
//	                 (default 2)
//	-max-inflight int admission capacity in cost units (default 8)
//	-queue int       admission wait-queue bound (default 32)
//	-timeout dur     per-query deadline (default 30s)
//	-seed int        workload generator seed (default 1)
//	-encrypted       AES-seal intermediate stores
//	-short           CI preset: scenarios uniform,mixed with a small
//	                 op budget (overridable by explicit flags)
//	-best-of int     repeat the whole run N times and keep per-metric
//	                 minima — the noise floor a regression ratchet
//	                 should compare (default 1)
//	-notrace         skip the per-query trace-hash verification
//	-check           exit non-zero when any scenario leaks goroutines
//	                 after Shutdown or completes a query whose trace
//	                 hash diverges from the sequential reference
//	-json path       write records to this path (default
//	                 BENCH_service.json; empty to skip)
//
// Every client executes a fixed slice of a fixed query rotation, and
// the tables come from seeded generators, so the executed workload is
// identical run to run; timings are the host's. The -check gates are
// exactly what the CI load job enforces; recalibrating the committed
// BENCH_baseline/BENCH_service.json means re-running the CI command
// and committing the fresh record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"oblivjoin/internal/exp"
)

func main() {
	scenarios := flag.String("scenarios", "", "comma-separated scenario families: uniform, powerlaw, pkfk, mixed, spill (default all)")
	n := flag.Int("n", 2048, "rows per generated table")
	clients := flag.Int("clients", 8, "closed-loop client goroutines")
	ops := flag.Int("ops", 96, "operations per scenario")
	workers := flag.Int("workers", 2, "label for the record; execution is sequential")
	maxInFlight := flag.Int("max-inflight", 8, "admission capacity in cost units (0 = unbounded)")
	queue := flag.Int("queue", 32, "admission wait-queue bound")
	timeout := flag.Duration("timeout", 30e9, "per-query deadline (0 = none)")
	seed := flag.Int64("seed", 1, "workload generator seed")
	encrypted := flag.Bool("encrypted", false, "AES-seal intermediate stores")
	short := flag.Bool("short", false, "CI preset: uniform,mixed with a small op budget")
	noTrace := flag.Bool("notrace", false, "skip trace-hash verification")
	check := flag.Bool("check", false, "exit non-zero on goroutine leaks or trace divergence")
	bestOf := flag.Int("best-of", 1, "repeat the whole run N times and keep per-metric minima (noise floor for the regression gate)")
	jsonPath := flag.String("json", "BENCH_service.json", "write records to this path (empty to skip)")
	flag.Parse()

	cfg := exp.LoadConfig{
		N:           *n,
		Clients:     *clients,
		Ops:         *ops,
		Workers:     *workers,
		MaxInFlight: *maxInFlight,
		Queue:       *queue,
		Timeout:     *timeout,
		Seed:        *seed,
		Encrypted:   *encrypted,
		CheckTraces: !*noTrace,
	}
	if *short {
		// The CI preset: two scenario classes, a budget of ~20s. The op
		// count is deliberately larger than the default — the latency
		// percentiles feed a ±25% regression gate, and tails computed
		// over too few samples are scheduler noise, not signal.
		// Explicit flags still win.
		cfg.Scenarios = []string{"uniform", "mixed"}
		setFlags := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
		if !setFlags["ops"] {
			cfg.Ops = 256
		}
		if !setFlags["n"] {
			cfg.N = 2048
		}
	}
	if *scenarios != "" {
		cfg.Scenarios = strings.Split(*scenarios, ",")
	}

	if *bestOf < 1 {
		*bestOf = 1
	}
	var runs [][]exp.LoadResult
	for i := 0; i < *bestOf; i++ {
		results, err := exp.RunLoad(os.Stdout, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oloadgen: %v\n", err)
			os.Exit(1)
		}
		runs = append(runs, results)
	}
	results := exp.MergeBest(runs...)
	if *jsonPath != "" {
		if err := exp.WriteLoadJSON(*jsonPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "oloadgen: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("(load records written to %s)\n", *jsonPath)
	}
	if *check {
		bad := false
		for _, r := range results {
			if r.GoroutineLeak > 0 {
				fmt.Fprintf(os.Stderr, "oloadgen: scenario %s leaked %d goroutines after Shutdown\n",
					r.Scenario, r.GoroutineLeak)
				bad = true
			}
			if cfg.CheckTraces && !r.TraceHashesMatch {
				fmt.Fprintf(os.Stderr, "oloadgen: scenario %s: %d/%d completed queries diverged from the sequential trace reference\n",
					r.Scenario, r.TraceMismatches, r.TraceChecked)
				bad = true
			}
			if r.Failed > 0 {
				fmt.Fprintf(os.Stderr, "oloadgen: scenario %s: %d queries failed outside admission/cancellation\n",
					r.Scenario, r.Failed)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
		fmt.Println("check: no goroutine leaks, all trace hashes match the sequential reference")
	}
}
