package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the untraced records of a -json file, grouped by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spread printed here is the one the acceptance procedure computes.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	ld := len(xs)
	if ld < 2 {
		return xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// side summarises one file's runs of one (workload, metric).
type side struct {
	median, spread float64 // spread is (q3 − q1) / median
	n              int
}

func summarise(recs []record, metric string) side {
	var xs []float64
	for _, r := range recs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	q1, q3 := quartiles(xs)
	m := median(append([]float64(nil), xs...))
	return side{median: m, spread: (q3 - q1) / m, n: len(xs)}
}

// verdict classifies b against base a for a metric that may worsen by
// bound: worse past the bound, better past it the other way, and
// unresolved when neither but a side's own spread exceeds the bound, so
// "same" cannot be claimed.
func verdict(def metricDef, a, b side) (delta float64, v string) {
	delta = (b.median - a.median) / a.median
	worsening := delta
	if def.Better == "higher" {
		worsening = -delta
	}
	switch {
	case worsening > def.Bound:
		return delta, "worse"
	case max(a.spread, b.spread) > def.Bound:
		return delta, "unresolved"
	case worsening < -def.Bound:
		return delta, "better"
	}
	return delta, "same"
}

func errorRate(recs []record) float64 {
	var attempted, failed int
	for _, r := range recs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// -json files, a being the base, and reports whether any metric is
// worse or any workload's error rate is higher.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "a.median", "b.median", "(b-a)/a", "bound", "a.iqr", "b.iqr", "verdict")
	for _, name := range workloadNames {
		ra, rb := a[name], b[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := summarise(ra, def.Name), summarise(rb, def.Name)
			delta, v := verdict(def, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-16s %-16s %12.6g %12.6g %+8.2f%% %6.0f%% %6.1f%% %6.1f%%  %s (n=%d/%d)\n",
				name, def.Name, sa.median, sb.median, 100*delta, 100*def.Bound, 100*sa.spread, 100*sb.spread, v, sa.n, sb.n)
		}
		ea, eb := errorRate(ra), errorRate(rb)
		v := "same"
		if eb > ea {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-16s %-16s %12.6g %12.6g %27s  %s\n", name, "error_rate", ea, eb, "", v)
	}
	return worse, nil
}
