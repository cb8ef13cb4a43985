// Command benchdiff is the CI perf-regression gate: it compares fresh
// BENCH_*.json records against the committed baseline directory and
// exits non-zero when any wall-time or memory metric regresses beyond
// the threshold, or when a baseline benchmark vanished from the fresh
// run.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline [-threshold 1.25] BENCH_join.json BENCH_sql.json
//
// Each fresh file is matched to the baseline file of the same name.
// Records match by input size and worker count (plus query text for
// SQL records, shard count for shard records and scenario × clients for
// the BENCH_service.json load records); every "*_ns" wall-time
// metric a baseline record carries is gated — including the load
// records' p50/p95/p99 latency percentiles — and so is every
// "*_bytes" memory metric (the deterministic peak/total allocation
// gauges), at the same threshold. New benchmarks with no baseline
// entry are reported but do not fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"oblivjoin/internal/benchdiff"
)

func main() {
	baseDir := flag.String("baseline", "BENCH_baseline", "directory holding the committed baseline records")
	threshold := flag.Float64("threshold", 1.25, "fail when fresh/baseline wall time exceeds this ratio")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline DIR [-threshold R] fresh.json ...")
		os.Exit(2)
	}

	failed := false
	for _, freshPath := range flag.Args() {
		basePath := filepath.Join(*baseDir, filepath.Base(freshPath))
		base, err := benchdiff.Load(basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: baseline %s: %v\n", basePath, err)
			os.Exit(2)
		}
		fresh, err := benchdiff.Load(freshPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: fresh %s: %v\n", freshPath, err)
			os.Exit(2)
		}
		rep := benchdiff.Compare(base, fresh, *threshold)
		fmt.Printf("%s vs %s: %d metrics compared, %d regression(s)\n",
			freshPath, basePath, rep.Compared, len(rep.Regressions))
		for _, r := range rep.Regressions {
			fmt.Printf("  REGRESSION %s\n", r)
		}
		for _, k := range rep.MissingInFresh {
			fmt.Printf("  MISSING    %s dropped from fresh run\n", k)
		}
		for _, k := range rep.MissingInBaseline {
			fmt.Printf("  note: %s has no baseline entry\n", k)
		}
		if rep.Failed() {
			failed = true
		}
	}
	if failed {
		fmt.Printf("benchdiff: FAIL (threshold %.2fx)\n", *threshold)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK (threshold %.2fx)\n", *threshold)
}
