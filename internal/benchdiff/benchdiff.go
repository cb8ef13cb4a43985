// Package benchdiff compares fresh BENCH_*.json perf records against a
// committed baseline and reports wall-time regressions — the CI gate
// that turns the benchmark artifacts into a trajectory instead of a
// pile of files.
//
// Records match on their key — the input size n and the worker count,
// plus the query text for SQL records — and regress when a gated metric
// exceeds the baseline by more than
// the threshold ratio. Every JSON field ending in "_ns" (wall times,
// latency percentiles), "_bytes" (the deterministic peak/total
// allocation gauges) or "_comparators" (exact oblivious comparator
// counts, the data-independent cost the paper optimises) is a gated
// metric, so new benchmark families are covered without touching the
// gate.
// Benchmarks present in the baseline but missing from the fresh run
// also fail: a benchmark silently dropped is a regression in coverage,
// and so is a metric that vanished from a record.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Record is the common shape of one benchmark row: the identifying key
// fields plus every wall-time metric the row carries. It parses the
// join records (BENCH_join.json), the SQL records (BENCH_sql.json) and
// the service load records (BENCH_service.json, whose latency
// percentiles are keyed on scenario, clients and workers); non-metric
// extra fields are ignored.
type Record struct {
	N        int
	Query    string
	Workers  int
	Scenario string
	Clients  int
	// Metrics holds every gated field of the record: "*_ns" metrics
	// keyed by the metric name with the suffix stripped
	// ("sequential_ns" → "sequential"), and "*_bytes" / "*_comparators"
	// metrics keyed by their full name ("peak_bytes",
	// "written_comparators") so reports stay unit-aware.
	Metrics map[string]int64
}

// UnmarshalJSON collects the key fields and every *_ns, *_bytes and
// *_comparators metric.
func (r *Record) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	get := func(key string, dst any) error {
		v, ok := raw[key]
		if !ok {
			return nil
		}
		return json.Unmarshal(v, dst)
	}
	if err := get("n", &r.N); err != nil {
		return err
	}
	if err := get("query", &r.Query); err != nil {
		return err
	}
	if err := get("workers", &r.Workers); err != nil {
		return err
	}
	if err := get("scenario", &r.Scenario); err != nil {
		return err
	}
	if err := get("clients", &r.Clients); err != nil {
		return err
	}
	r.Metrics = map[string]int64{}
	for k, v := range raw {
		name := ""
		switch {
		case strings.HasSuffix(k, "_ns"):
			name = strings.TrimSuffix(k, "_ns")
		case strings.HasSuffix(k, "_bytes"), strings.HasSuffix(k, "_comparators"):
			name = k
		default:
			continue
		}
		var m int64
		if err := json.Unmarshal(v, &m); err != nil {
			return fmt.Errorf("benchdiff: metric %s: %w", k, err)
		}
		r.Metrics[name] = m
	}
	return nil
}

// Key identifies the record for baseline matching: input size and
// worker count, plus the query text for SQL records and
// the (scenario, clients) pair for service load records — latency
// percentiles only compare within the same workload at the same
// closed-loop concurrency. Workers is part of the key so a fresh run
// at a different parallelism config fails loudly as a missing
// benchmark instead of silently comparing mismatched configurations.
func (r Record) Key() string {
	k := fmt.Sprintf("n=%d workers=%d", r.N, r.Workers)
	if r.Scenario != "" {
		k += fmt.Sprintf(" scenario=%s clients=%d", r.Scenario, r.Clients)
	}
	if r.Query != "" {
		k += " query=" + r.Query
	}
	return k
}

// Load reads a benchmark record file.
func Load(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses benchmark records from r.
func Read(r io.Reader) ([]Record, error) {
	var recs []Record
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	return recs, nil
}

// Regression is one gated metric that exceeded the threshold.
type Regression struct {
	Key    string
	Metric string // metric name, e.g. "sequential" or "peak_bytes"
	// BaselineNS and FreshNS hold the metric values in its native unit:
	// nanoseconds for "*_ns" metrics, bytes for "*_bytes" metrics.
	BaselineNS int64
	FreshNS    int64
	Ratio      float64 // FreshNS / BaselineNS
}

func (r Regression) String() string {
	name := strings.TrimSuffix(r.Metric, " (missing)")
	if strings.HasSuffix(name, "_bytes") {
		return fmt.Sprintf("%s %s: %.2fx baseline (%d B -> %d B)",
			r.Key, r.Metric, r.Ratio, r.BaselineNS, r.FreshNS)
	}
	if strings.HasSuffix(name, "_comparators") {
		return fmt.Sprintf("%s %s: %.2fx baseline (%d -> %d comparators)",
			r.Key, r.Metric, r.Ratio, r.BaselineNS, r.FreshNS)
	}
	return fmt.Sprintf("%s %s: %.2fx baseline (%.3fms -> %.3fms)",
		r.Key, r.Metric, r.Ratio, float64(r.BaselineNS)/1e6, float64(r.FreshNS)/1e6)
}

// Report is the outcome of one baseline comparison.
type Report struct {
	// Compared counts the (key, metric) pairs checked.
	Compared int
	// Regressions lists metrics that exceeded the threshold.
	Regressions []Regression
	// MissingInFresh lists baseline keys absent from the fresh run —
	// dropped benchmarks, which fail the gate.
	MissingInFresh []string
	// MissingInBaseline lists fresh keys with no baseline — new
	// benchmarks, reported but not failing.
	MissingInBaseline []string
}

// Failed reports whether the gate should fail CI.
func (rep Report) Failed() bool {
	return len(rep.Regressions) > 0 || len(rep.MissingInFresh) > 0
}

// Compare matches fresh records against baseline by key and flags every
// wall-time metric whose fresh value exceeds baseline*threshold.
// threshold is a ratio: 1.25 allows up to +25%.
func Compare(baseline, fresh []Record, threshold float64) Report {
	var rep Report
	fm := make(map[string]Record, len(fresh))
	for _, r := range fresh {
		fm[r.Key()] = r
	}
	bm := make(map[string]Record, len(baseline))
	for _, b := range baseline {
		bm[b.Key()] = b
	}
	for _, b := range baseline {
		f, ok := fm[b.Key()]
		if !ok {
			rep.MissingInFresh = append(rep.MissingInFresh, b.Key())
			continue
		}
		// Check the baseline's metrics in a stable order so reports
		// are deterministic.
		names := make([]string, 0, len(b.Metrics))
		for name := range b.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			baseNS := b.Metrics[name]
			if baseNS <= 0 {
				continue
			}
			rep.Compared++
			freshNS := f.Metrics[name]
			// A fresh value of zero means the metric vanished (renamed
			// field, dropped instrumentation) — that silently disables
			// the gate, so it fails like a dropped benchmark.
			if freshNS <= 0 {
				rep.Regressions = append(rep.Regressions, Regression{
					Key: b.Key(), Metric: name + " (missing)",
					BaselineNS: baseNS, FreshNS: freshNS, Ratio: 0,
				})
				continue
			}
			ratio := float64(freshNS) / float64(baseNS)
			if ratio > threshold {
				rep.Regressions = append(rep.Regressions, Regression{
					Key: b.Key(), Metric: name,
					BaselineNS: baseNS, FreshNS: freshNS, Ratio: ratio,
				})
			}
		}
	}
	for _, f := range fresh {
		if _, ok := bm[f.Key()]; !ok {
			rep.MissingInBaseline = append(rep.MissingInBaseline, f.Key())
		}
	}
	sort.Strings(rep.MissingInFresh)
	sort.Strings(rep.MissingInBaseline)
	return rep
}
