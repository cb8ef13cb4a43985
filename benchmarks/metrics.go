package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef is one metric of the benchmark contract. BENCHMARK.json
// repeats these lists; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics every untraced run reports, with the share
// of the parent's median by which each may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.10},
	{"op_p90_ms", "ms", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"peak_tracked_mb", "MB", "lower", 0.02},
}

// sqlShapes names the per-shape latency metrics of the http layer.
var sqlShapes = []string{"point", "range", "semijoin", "join2", "joincount", "chain3", "distinct", "write"}

// execOps are the operator classes of the query rotations.
var execOps = []string{"scan", "filter", "semijoin", "oblivious-join", "rekey", "join-aggregate", "distinct", "sort", "limit", "project"}

// perLayer are the metrics every traced run reports. A metric whose
// layer the workload never enters reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ns", "obliv.condswap_entry_ns", "obliv.less_ns")
	add("lower", "ns", "crypto.seal_range_ns_per_entry", "crypto.open_range_ns_per_entry")
	add("higher", "MB/s", "crypto.seal_mb_s")
	add("lower", "B", "crypto.overhead_bytes")
	add("lower", "count", "crypto.allocs_per_op")
	add("lower", "ns", "table.plain.getrange_ns_per_entry", "table.plain.setrange_ns_per_entry",
		"table.block.getrange_ns_per_entry", "table.block.setrange_ns_per_entry", "table.block.get_ns")
	add("lower", "B", "table.block.bytes_per_entry")
	add("lower", "ns", "trace.hasher_ns_per_event")
	add("lower", "count", "trace.events_per_op")
	add("lower", "%", "trace.hash_share_pct")
	add("lower", "ms", "bitonic.sort_ms")
	add("lower", "count", "bitonic.comparators")
	add("lower", "ns", "bitonic.ns_per_cmp", "bitonic.mergeexchange_ns_per_cmp")
	add("higher", "ratio", "bitonic.w2_speedup")
	add("lower", "ms", "core.augment_ms", "core.expand1_ms", "core.expand2_ms", "core.align_ms", "core.zip_ms")
	add("lower", "ratio", "core.phase_sum_over_whole")
	add("lower", "ms", "core.dist_sort_ms", "core.dist_route_ms", "core.expand_scan_ms")
	add("lower", "count", "core.comparators", "core.route_ops")
	add("lower", "ns", "core.ns_per_cmp", "core.ns_per_route_op")
	add("lower", "ratio", "shard.s2_over_s1")
	add("lower", "us", "query.parse_us", "query.plan_us", "query.cost_us", "query.lower_us")
	add("lower", "count", "query.modeled_comparators", "query.observed_comparators")
	add("higher", "bool", "query.model_exact")
	add("lower", "%", "query.time_model_residual_pct")
	for _, op := range execOps {
		add("lower", "ms", "exec."+op+"_ms")
	}
	add("lower", "count", "exec.rows_out_per_op")
	add("lower", "us", "catalog.replace_us")
	add("lower", "us", "wal.commit_us", "wal.fs_us_per_commit")
	add("lower", "count", "wal.fsyncs_per_commit", "wal.write_calls_per_commit")
	add("lower", "B", "wal.bytes_per_commit")
	add("lower", "ms", "wal.snapshot_ms")
	add("lower", "us", "wal.replay_us_per_record")
	add("lower", "us", "service.prepare_hit_us", "service.prepare_miss_us", "service.exec_overhead_us")
	add("higher", "ratio", "service.plan_cache_hit_ratio")
	add("lower", "count", "service.plan_invalidations", "service.rejected")
	add("lower", "us", "http.roundtrip_overhead_us")
	add("lower", "B", "http.response_bytes_per_op")
	add("lower", "ms", "http.p99_ms")
	for _, s := range sqlShapes {
		add("lower", "ms", "http."+s+"_p50_ms")
	}
	add("lower", "ms", "durable.commit_p50_ms", "durable.commit_p90_ms", "durable.recover_ms")
	add("lower", "ratio", "durable.stored_bytes_per_user_byte")
	add("lower", "%", "share.harness_pct", "share.http_pct", "share.service_pct", "share.exec_pct",
		"share.core_pct", "share.table_pct", "share.sealed_store_pct", "share.wal_of_write_pct",
		"share.serving_of_point_pct", "share.serving_of_chain3_pct")
	add("lower", "count", "proc.allocs_per_op")
	add("lower", "MB", "proc.alloc_mb_per_op", "proc.rss_peak_mb")
	add("lower", "ms", "proc.gc_pause_ms")
	add("lower", "s", "proc.cpu_s")
	add("higher", "ratio", "proc.cpu_util")
	add("lower", "%", "harness.trace_overhead_pct")
	return defs
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics against a fixed list of
// definitions: setting an unknown name is a bug, and every defined
// name is printed, so the set a run prints is exactly the contract's.
type report struct {
	defs   []metricDef
	values map[string]float64
	// notes explain metrics left at 0 (a layer the workload does not
	// enter, a parallel ratio refused at GOMAXPROCS = 1).
	notes map[string]string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.values[name] = v
			return
		}
	}
	panic("benchmarks: metric " + name + " is not in the contract")
}

// omit records why a metric stays 0.
func (r *report) omit(reason string, names ...string) {
	for _, n := range names {
		r.notes[n] = reason
	}
}

// metrics returns every defined metric, unset ones as 0.
func (r *report) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		out[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

// print lists every metric by name with its unit, and the reason for
// each one left at 0.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		if v, ok := r.values[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	reasons := map[string][]string{}
	for _, d := range r.defs {
		if _, ok := r.values[d.Name]; !ok {
			why := r.notes[d.Name]
			if why == "" {
				why = "layer not entered by this workload"
			}
			reasons[why] = append(reasons[why], d.Name)
		}
	}
	whys := make([]string, 0, len(reasons))
	for w := range reasons {
		whys = append(whys, w)
	}
	sort.Strings(whys)
	for _, why := range whys {
		fmt.Fprintf(w, "  0 (%s): %v\n", why, reasons[why])
	}
}
