package exp

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/query"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
)

// shardChain is the measured pipeline: a one-to-one join whose keyed
// output is rekeyed, filtered at ~15/16 selectivity (key%16 != 0,
// branch-free) and projected.
func shardChain() []exec.Operator {
	return []exec.Operator{
		exec.Scan{Table: "t1"},
		exec.Join{Table: "t2"},
		exec.Rekey{},
		exec.Filter{Pred: func(r table.Row) uint64 { return obliv.Not(obliv.Eq(r.J%16, 0)) }},
		exec.Project{Items: []exec.ProjItem{{Col: exec.ColKey}, {Col: exec.ColData}}},
	}
}

// shardTables builds the one-to-one matched catalog for shardChain:
// every key 0..n-1 appears once per side with a short tagged payload,
// so the join output is exactly n pairs and the rekeyed payloads stay
// inside the fixed width.
func shardTables(n int) map[string][]table.Row {
	t1 := make([]table.Row, n)
	t2 := make([]table.Row, n)
	for i := 0; i < n; i++ {
		t1[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("a%d", i%1000))}
		t2[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("b%d", i%1000))}
	}
	return map[string][]table.Row{"t1": t1, "t2": t2}
}

// ShardBenchResult is one row of the sharded-execution benchmark: the
// scan→join→rekey→filter→project chain at one shard count, fixed input
// size and worker budget. Wall time and the allocation-gauge readings
// are the gated perf metrics (keyed on n, workers, shards by
// benchdiff); SpeedupVsS1 is derived reporting. Every sharded row's
// result is compared against the unsharded row's — shard-count
// invariance is checked on every benchmark run, not just in tests —
// and the composed trace hash is recorded from a separate
// instrumented run (timing runs count events only) and must reproduce
// across two executions.
type ShardBenchResult struct {
	N       int `json:"n"`
	M       int `json:"m"`
	Workers int `json:"workers"`
	Shards  int `json:"shards"`

	WallNS          int64 `json:"wall_ns"`
	PeakBytes       int64 `json:"peak_bytes"`
	TotalAllocBytes int64 `json:"total_alloc_bytes"`

	Comparators uint64  `json:"comparators"`
	SpeedupVsS1 float64 `json:"speedup_vs_s1"`

	ResultsEqual bool   `json:"results_equal_s1"`
	TraceHash    string `json:"trace_hash,omitempty"`
	TraceDetHash bool   `json:"trace_hashes_equal"`
	TraceSkipped string `json:"trace_hash_skipped,omitempty"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
}

// BenchShard measures the sharded executor at each shard count in
// shards (1 must come first — it is the baseline the speedups and the
// invariance checks compare against) on the shardChain pipeline over
// plain storage at one input size. workers ≤ 0 means GOMAXPROCS.
func BenchShard(w io.Writer, n, workers int, shards []int) ([]ShardBenchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(shards) == 0 || shards[0] != 1 {
		shards = append([]int{1}, shards...)
	}
	tables := shardTables(n)
	pipeline := shardChain()
	fmt.Fprintf(w, "Shard benchmark — hash-partitioned parallel join, scan→join→rekey→filter→project (n=%d, workers=%d)\n", n, workers)
	fmt.Fprintf(w, "%7s %12s %14s %9s %12s %8s %s\n", "shards", "wall", "peak", "speedup", "comparators", "results", "trace")

	var out []ShardBenchResult
	var baseRes *query.Result
	var baseNS int64
	for _, s := range shards {
		opts := query.Options{Workers: workers, CollectStats: true, Shards: s}
		t0 := time.Now()
		res, ps, err := query.Run(nil, opts, nil, tables, pipeline)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("exp: shard s=%d: %w", s, err)
		}

		r := ShardBenchResult{
			N: n, M: n, Workers: workers, Shards: s,
			WallNS: wall.Nanoseconds(), PeakBytes: ps.PeakBytes, TotalAllocBytes: ps.TotalAllocBytes,
			Comparators: ps.Comparators, GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
		if s == 1 {
			baseRes, baseNS = res, r.WallNS
			r.ResultsEqual = true
		} else {
			r.ResultsEqual = reflect.DeepEqual(res, baseRes)
			if !r.ResultsEqual {
				return nil, fmt.Errorf("exp: shard s=%d: result diverges from the unsharded run", s)
			}
		}
		if baseNS > 0 && r.WallNS > 0 {
			r.SpeedupVsS1 = float64(baseNS) / float64(r.WallNS)
		}

		// Composed-hash evidence from separate instrumented runs: the
		// hash must reproduce exactly; timing above stays unhashed.
		if n <= hashCheckCap {
			ho := opts
			ho.TraceHash = true
			_, hps1, err := query.Run(nil, ho, nil, tables, pipeline)
			if err != nil {
				return nil, fmt.Errorf("exp: shard s=%d hashed: %w", s, err)
			}
			_, hps2, err := query.Run(nil, ho, nil, tables, pipeline)
			if err != nil {
				return nil, fmt.Errorf("exp: shard s=%d hashed repeat: %w", s, err)
			}
			r.TraceHash = hps1.TraceHash
			r.TraceDetHash = hps1.TraceHash != "" && hps1.TraceHash == hps2.TraceHash
			if !r.TraceDetHash {
				return nil, fmt.Errorf("exp: shard s=%d: composed trace hash did not reproduce", s)
			}
		} else {
			r.TraceSkipped = fmt.Sprintf("n exceeds hash check cap %d", hashCheckCap)
		}

		det := "hash=eq"
		if r.TraceSkipped != "" {
			det = "hash=skipped"
		}
		fmt.Fprintf(w, "%7d %12s %14d %8.2fx %12d %8t %s\n",
			s, wall.Round(time.Microsecond), r.PeakBytes, r.SpeedupVsS1, r.Comparators, r.ResultsEqual, det)
		out = append(out, r)
	}
	return out, nil
}

// WriteShardBenchJSON writes the shard benchmark rows as indented JSON
// to path.
func WriteShardBenchJSON(path string, results []ShardBenchResult) error {
	return writeJSON(path, results)
}
