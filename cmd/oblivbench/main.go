// Command oblivbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	oblivbench -exp table1|table2|table3|fig7|fig8|circuit|bench|sql|planner|wal|fault|chaos|all [flags]
//
//	-n int          input size for table1/table3 (default 4096 / 65536)
//	-sizes list     comma-separated n values for fig8
//	-pgm path       also write Figure 7 as a PGM image
//	-bsizes list    comma-separated n values for the bench experiment
//	-ssizes list    comma-separated n values for the sql experiment
//	-pscales list   catalog scale factors for the planner experiment
//	-workers int    label for bench/sql records; execution is sequential
//	-short          wal/fault preset: small sizes for the CI gate
//	-walrows int    rows per commit for the wal experiment (default 64)
//	-walcommits int fsynced commits in the wal experiment (default 192)
//	-faultn int     query input size for the fault experiment (default 8192)
//	-chaosrows int  table rows for the chaos experiment (default 256)
//	-chaosseed int  fault-injection seed for the chaos experiment
//	-json path      write bench results as JSON (default BENCH_join.json)
//	-sqljson path   write sql results as JSON (default BENCH_sql.json)
//	-waljson path   write wal results as JSON (default BENCH_wal.json)
//	-faultjson path write fault results as JSON (default BENCH_fault.json)
//
// bench (sequential vs parallel join wall times, tracing on, with a
// BENCH_join.json perf record), sql (the same comparison for the SQL
// plan pipeline plus the planner's written-versus-greedy comparator
// records, BENCH_sql.json; planner prints just the comparator table
// without touching the JSON) are opt-in: they run only with an explicit
// -exp name, never under -exp all.
//
// fault measures the fault-injection seam's fault-free overhead
// (direct OS IO vs a disarmed injector on the WAL-commit and spill
// paths, BENCH_fault.json); chaos drives a durable service through
// seeded storage-fault schedules and exits non-zero on any
// containment violation. Both are opt-in.
//
// Absolute timings depend on the host; the reproduction targets are the
// orderings and growth shapes (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"oblivjoin/internal/exp"
)

func main() {
	which := flag.String("exp", "all", "experiment: table1, table2, table3, fig7, fig8, circuit, bench, sql, planner, wal, fault, chaos, all")
	n := flag.Int("n", 0, "input size for table1/table3 (defaults: 4096, 65536)")
	sizes := flag.String("sizes", "25000,50000,100000,200000", "comma-separated input sizes for fig8")
	pgm := flag.String("pgm", "", "write Figure 7 as a PGM image to this path")
	nlCap := flag.Int("nlcap", 2048, "largest n for the quadratic nested-loop baseline")
	bsizes := flag.String("bsizes", "16384,65536,131072", "comma-separated input sizes for bench")
	ssizes := flag.String("ssizes", "4096,16384,65536", "comma-separated input sizes for sql")
	pscales := flag.String("pscales", "1,2", "comma-separated catalog scale factors for the planner experiment")
	workers := flag.Int("workers", 0, "label for bench/sql records; execution is sequential")
	short := flag.Bool("short", false, "wal/fault preset: small sizes for the CI gate (overridable by -walcommits/-faultn)")
	walRows := flag.Int("walrows", 64, "rows per commit for the wal experiment")
	walCommits := flag.Int("walcommits", 192, "fsynced commits in the wal experiment")
	walJSONPath := flag.String("waljson", "BENCH_wal.json", "write wal results as JSON to this path (empty to skip)")
	faultN := flag.Int("faultn", 8192, "query input size for the fault experiment")
	faultJSONPath := flag.String("faultjson", "BENCH_fault.json", "write fault results as JSON to this path (empty to skip)")
	chaosRows := flag.Int("chaosrows", 256, "table rows for the chaos experiment")
	chaosSeed := flag.Uint64("chaosseed", 99, "fault-injection seed for the chaos experiment")
	jsonPath := flag.String("json", "BENCH_join.json", "write bench results as JSON to this path (empty to skip)")
	sqlJSONPath := flag.String("sqljson", "BENCH_sql.json", "write sql results as JSON to this path (empty to skip)")
	flag.Parse()

	parseSizes := func(s string) ([]int, error) {
		var ns []int
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad size entry %q: %w", f, err)
			}
			ns = append(ns, v)
		}
		return ns, nil
	}

	// bench is opt-in only: it is a perf experiment that writes
	// BENCH_join.json to the working directory, not one of the paper's
	// figures, so a bare `oblivbench` (-exp all) does not run it.
	optIn := map[string]bool{"bench": true, "sql": true, "planner": true, "wal": true, "fault": true, "chaos": true}
	run := func(name string, f func() error) {
		if *which != name && (*which != "all" || optIn[name]) {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "oblivbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		size := *n
		if size == 0 {
			size = 4096
		}
		return exp.Table1(os.Stdout, size, *nlCap)
	})
	run("table2", func() error { return exp.Table2(os.Stdout) })
	run("table3", func() error {
		size := *n
		if size == 0 {
			size = 65536
		}
		return exp.Table3(os.Stdout, size)
	})
	run("fig7", func() error {
		ascii, img := exp.Fig7()
		fmt.Println("Figure 7 — memory access pattern, n1=n2=4 → m=8")
		fmt.Print(ascii)
		if *pgm != "" {
			if err := os.WriteFile(*pgm, []byte(img), 0o644); err != nil {
				return err
			}
			fmt.Printf("(PGM image written to %s)\n", *pgm)
		}
		return nil
	})
	run("circuit", func() error {
		return exp.Circuit(os.Stdout, []int{4, 8, 16, 32}, 16)
	})
	run("fig8", func() error {
		ns, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		_, err = exp.Fig8(os.Stdout, ns)
		return err
	})
	run("bench", func() error {
		ns, err := parseSizes(*bsizes)
		if err != nil {
			return err
		}
		results, err := exp.BenchJoin(os.Stdout, ns, *workers)
		if err != nil {
			return err
		}
		if *jsonPath != "" {
			if err := exp.WriteBenchJSON(*jsonPath, results); err != nil {
				return err
			}
			fmt.Printf("(bench results written to %s)\n", *jsonPath)
		}
		return nil
	})
	run("wal", func() error {
		commits := *walCommits
		lens := []int{256, 1024}
		if *short {
			set := map[string]bool{}
			flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
			if !set["walcommits"] {
				commits = 64
			}
			lens = []int{64, 256}
		}
		results, err := exp.BenchWAL(os.Stdout, *walRows, commits, lens)
		if err != nil {
			return err
		}
		if *walJSONPath != "" {
			if err := exp.WriteWALBenchJSON(*walJSONPath, results); err != nil {
				return err
			}
			fmt.Printf("(wal results written to %s)\n", *walJSONPath)
		}
		return nil
	})
	run("fault", func() error {
		rows, commits, qn := *walRows, *walCommits, *faultN
		if *short {
			set := map[string]bool{}
			flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
			if !set["walcommits"] {
				commits = 64
			}
			if !set["faultn"] {
				qn = 4096
			}
		}
		results, err := exp.BenchFault(os.Stdout, rows, commits, qn)
		if err != nil {
			return err
		}
		if *faultJSONPath != "" {
			if err := exp.WriteFaultBenchJSON(*faultJSONPath, results); err != nil {
				return err
			}
			fmt.Printf("(fault results written to %s)\n", *faultJSONPath)
		}
		return nil
	})
	run("chaos", func() error {
		_, err := exp.RunChaos(os.Stdout, *chaosRows, *chaosSeed)
		return err
	})
	run("sql", func() error {
		ns, err := parseSizes(*ssizes)
		if err != nil {
			return err
		}
		results, err := exp.BenchSQL(os.Stdout, ns, *workers)
		if err != nil {
			return err
		}
		fmt.Println()
		scales, err := parseSizes(*pscales)
		if err != nil {
			return err
		}
		planner, err := exp.BenchPlanner(os.Stdout, scales)
		if err != nil {
			return err
		}
		if *sqlJSONPath != "" {
			if err := exp.WriteSQLBenchJSON(*sqlJSONPath, results, planner); err != nil {
				return err
			}
			fmt.Printf("(sql results written to %s)\n", *sqlJSONPath)
		}
		return nil
	})
	run("planner", func() error {
		scales, err := parseSizes(*pscales)
		if err != nil {
			return err
		}
		_, err = exp.BenchPlanner(os.Stdout, scales)
		return err
	})
}
