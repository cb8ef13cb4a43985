// Package core implements the oblivious equi-join of Krastnikov,
// Kerschbaum and Stebila (VLDB 2020): Algorithms 1–5 of the paper.
//
// The pipeline is
//
//	Augment-Tables → Oblivious-Expand(T1, α2) → Oblivious-Expand(T2, α1)
//	              → Align-Table(S2) → zip
//
// running in O(n log² n + m log m) with a constant-size protected working
// set (a handful of local variables, on the order of one entry). All
// accesses to table storage flow through table.Store, whose
// implementations emit the trace events that the repository's
// obliviousness tests verify.
package core

import (
	"context"
	"runtime"
	"time"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// SortNet selects which sorting network the join uses.
type SortNet int

const (
	// Bitonic is Batcher's bitonic sorter, the paper's default.
	Bitonic SortNet = iota
	// MergeExchange is Batcher's odd-even merge-exchange sort; fewer
	// comparators, less parallel structure. Used in ablations.
	MergeExchange
)

// Config parameterizes a join run. Alloc is required; the zero values of
// the remaining fields give the paper's default configuration
// (deterministic routing distribute, bitonic sorts, no instrumentation).
type Config struct {
	// Alloc provides entry storage (plain or encrypted public memory).
	Alloc table.Alloc
	// Net selects the sorting network.
	Net SortNet
	// Probabilistic switches Oblivious-Distribute to the PRP-based
	// variant of §5.2 instead of the deterministic routing network.
	Probabilistic bool
	// Seed seeds the pseudorandom permutation of the probabilistic
	// distribute. The deterministic variant ignores it. A zero seed is
	// valid (it is still a fixed permutation; callers wanting fresh
	// randomness should supply entropy).
	Seed int64
	// Stats, when non-nil, accumulates per-phase comparator counts and
	// wall times (the Table 3 instrumentation). Counting is
	// parallel-safe: comparator and route-op totals are accumulated
	// deterministically at round barriers, so Stats composes with
	// Workers/Parallel and reports identical counts at every
	// parallelism degree.
	Stats *Stats
	// Workers sets the parallelism of the sorting networks, the routing
	// network and the linear scans: > 1 partitions each execution round
	// across that many lanes of a persistent worker pool, 1 (or 0 with
	// Parallel unset) runs sequentially, and < 0 uses GOMAXPROCS. Every
	// phase executes the same round schedule at every parallelism
	// degree, and traced runs merge per-lane event shards in canonical
	// order at round barriers, so the recorded trace, the comparator
	// counts and the result are all independent of Workers. Stores that
	// cannot be accessed concurrently (an enclave cost model attached)
	// degrade to sequential execution over the same schedule.
	Workers int
	// Parallel is shorthand for Workers = GOMAXPROCS when Workers is 0.
	// Unlike the pre-round-schedule implementation it composes with
	// Stats, tracing and MergeExchange; see Workers.
	Parallel bool
	// Ctx, when non-nil and cancellable, makes the run abortable: the
	// sorting networks, routing waves and blocked scans probe it at
	// round barriers and block boundaries and abort by panicking with
	// an Abort (see cancel.go) within one round of cancellation. A nil
	// context (or context.Background()) costs nothing. The probe
	// cadence is a fixed function of the public input sizes, so
	// cancellation support leaks nothing about table contents.
	Ctx context.Context
	// Mem, when non-nil, is the run's allocation gauge: every store
	// handed out by Alloc is tracked in it, the query driver charges
	// relation hand-off buffers to it, and the streaming stages release
	// what they have drained through ReleaseStore. The query layer uses
	// it to report PeakBytes/TotalAllocBytes and to divert allocations
	// to sealed spill files under a memory budget.
	Mem *table.Gauge
	// Shards is the hash-partition fan-out requested for join
	// execution. The core operators themselves never branch on it — a
	// single Config always drives one sequential-equivalent pipeline —
	// but the sharded scheduler (internal/shard) reads it off the
	// parent config, and per-shard configs carry 1. ≤ 1 means
	// unsharded.
	Shards int
}

// ReleaseStore marks st dead for the run's allocation gauge (freeing
// its spill file, if any); a no-op without a gauge. The feed-based join
// and the streaming stages call it the moment an intermediate store is
// fully drained.
func (c *Config) ReleaseStore(st table.Store) {
	if c.Mem == nil {
		return
	}
	// Unwrap windowed aliases: releasing a view means releasing the
	// store it windows (a view never outlives its phase).
	for {
		v, ok := st.(view)
		if !ok {
			break
		}
		st = v.s
	}
	c.Mem.Release(st)
}

// Stats records the per-phase cost breakdown reported in Table 3 of the
// paper, plus input/output sizes.
type Stats struct {
	N1, N2 int // input table sizes
	M      int // output size (public by design; the algorithm leaks it)

	AugmentSort    bitonic.Stats // the two sorts on TC (Alg. 2 lines 3, 5)
	DistributeSort bitonic.Stats // sorts inside the two distributes
	AlignSort      bitonic.Stats // the sort on S2 (Alg. 5 line 8)
	RelationalSort bitonic.Stats // sorts issued by the relational operators (ops, aggregate)
	RouteOps       uint64        // compare–hop steps of the routing loops

	TAugment    time.Duration // Augment-Tables wall time
	TDistSort   time.Duration // distribute: sorting portion
	TDistRoute  time.Duration // distribute: routing portion
	TExpandScan time.Duration // expand: prefix-sum and fill-down scans
	TAlign      time.Duration // Align-Table wall time
	TZip        time.Duration // output collection wall time
}

// Total returns the sum of all phase durations.
func (s *Stats) Total() time.Duration {
	return s.TAugment + s.TDistSort + s.TDistRoute + s.TExpandScan + s.TAlign + s.TZip
}

// RelationalSortStats returns the bucket the relational operators'
// sorts (internal/ops, internal/aggregate) accumulate into, or nil
// when the config carries no instrumentation.
func (c *Config) RelationalSortStats() *bitonic.Stats {
	if c.Stats == nil {
		return nil
	}
	return &c.Stats.RelationalSort
}

// Add accumulates o's comparator, route-op and phase-duration counters
// into s. Input/output sizes (N1, N2, M) are per-join figures, not
// additive, and are left alone. The sharded scheduler folds per-shard
// stats into the parent run's Stats through this, in shard order, at
// the post-barrier synchronization point — so totals stay
// deterministic at every concurrency degree.
func (s *Stats) Add(o *Stats) {
	s.AugmentSort.CompareExchanges += o.AugmentSort.CompareExchanges
	s.DistributeSort.CompareExchanges += o.DistributeSort.CompareExchanges
	s.AlignSort.CompareExchanges += o.AlignSort.CompareExchanges
	s.RelationalSort.CompareExchanges += o.RelationalSort.CompareExchanges
	s.RouteOps += o.RouteOps

	s.TAugment += o.TAugment
	s.TDistSort += o.TDistSort
	s.TDistRoute += o.TDistRoute
	s.TExpandScan += o.TExpandScan
	s.TAlign += o.TAlign
	s.TZip += o.TZip
}

// Comparators returns the total compare–exchange count across every
// sorting network the run executed, all phases included.
func (s *Stats) Comparators() uint64 {
	return s.AugmentSort.CompareExchanges +
		s.DistributeSort.CompareExchanges +
		s.AlignSort.CompareExchanges +
		s.RelationalSort.CompareExchanges
}

// WorkerCount resolves the configured parallelism to a concrete lane
// count (≥ 1) — exported for the sharded scheduler, which divides the
// parent's lanes among concurrent execution units.
func (c *Config) WorkerCount() int { return c.workerCount() }

// workerCount resolves the configured parallelism to a concrete lane
// count (≥ 1).
func (c *Config) workerCount() int {
	switch {
	case c.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case c.Workers > 0:
		return c.Workers
	case c.Parallel:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// SortStore runs the configured sorting network over st at the
// configured parallelism. Comparator counts land in bs (nil to skip) at
// every parallelism degree (the former sequential-only restriction is
// gone: round-barrier accumulation made counting deterministic). It is
// exported so the relational operators (internal/ops,
// internal/aggregate) sort through the same Config — one knob for
// network choice, parallelism and instrumentation across the whole
// query pipeline.
func (c *Config) SortStore(st table.Store, less bitonic.LessFunc[table.Entry], bs *bitonic.Stats) {
	w := c.workerCount()
	check := c.checkFn()
	if c.Net == MergeExchange {
		bitonic.MergeExchangeSortParallelCheck[table.Entry](st, less, table.CondSwapEntry, bs, w, check)
		return
	}
	bitonic.SortParallelCheck[table.Entry](st, less, table.CondSwapEntry, bs, w, check)
}

// pairArray adapts a plain KeyedPair slice to the sorting networks'
// Array interface. Pair relations travel between operators as plain
// slices (their per-element access pattern is already fixed by the
// networks' schedules), so no store allocation is involved.
type pairArray []table.KeyedPair

func (p pairArray) Len() int                     { return len(p) }
func (p pairArray) Get(i int) table.KeyedPair    { return p[i] }
func (p pairArray) Set(i int, v table.KeyedPair) { p[i] = v }

// SortPairs runs the configured sorting network over a KeyedPair slice
// in place, at the configured parallelism, with cancellation probes at
// the round barriers. Comparator counts land in bs (nil to skip). The
// canonicalize stage of a reordered join chain sorts through this, so
// its network choice, parallelism and instrumentation match the rest of
// the pipeline.
func (c *Config) SortPairs(pairs []table.KeyedPair, less bitonic.LessFunc[table.KeyedPair], bs *bitonic.Stats) {
	w := c.workerCount()
	check := c.checkFn()
	if c.Net == MergeExchange {
		bitonic.MergeExchangeSortParallelCheck[table.KeyedPair](pairArray(pairs), less, table.CondSwapKeyedPair, bs, w, check)
		return
	}
	bitonic.SortParallelCheck[table.KeyedPair](pairArray(pairs), less, table.CondSwapKeyedPair, bs, w, check)
}

func (c *Config) stats() *Stats {
	if c.Stats != nil {
		return c.Stats
	}
	return &Stats{} // discarded scratch so call sites stay branch-light
}

// view is a windowed alias of a Store: the augmented TC is split into T1
// and T2 as two regions of the same array (§6.2's space accounting
// depends on this). It forwards the optional sharding capability of
// its underlying store so windowed tables still ride the parallel
// paths.
type view struct {
	s    table.Store
	off  int
	size int
}

func (v view) Len() int                 { return v.size }
func (v view) Get(i int) table.Entry    { return v.s.Get(v.off + i) }
func (v view) Set(i int, e table.Entry) { v.s.Set(v.off+i, e) }

// GetRange reads [lo, lo+len(dst)) of the window.
func (v view) GetRange(lo int, dst []table.Entry) {
	loadRange(v.s, v.off+lo, dst)
}

// SetRange writes src over [lo, lo+len(src)) of the window.
func (v view) SetRange(lo int, src []table.Entry) {
	storeRange(v.s, v.off+lo, src)
}

// Traced implements bitonic.Sharder by forwarding to the underlying
// store, conservatively assuming a trace when it cannot tell.
func (v view) Traced() bool {
	if sh, ok := v.s.(bitonic.Sharder); ok {
		return sh.Traced()
	}
	return true
}

// Recorder implements bitonic.Sharder.
func (v view) Recorder() trace.Recorder {
	if sh, ok := v.s.(bitonic.Sharder); ok {
		return sh.Recorder()
	}
	return trace.Nop{}
}

// Shard implements bitonic.Sharder: a shard of a view is a view of a
// shard. Returns nil when the underlying store cannot shard.
func (v view) Shard(rec trace.Recorder) any {
	sh, ok := v.s.(bitonic.Sharder)
	if !ok {
		return nil
	}
	res := sh.Shard(rec)
	if res == nil {
		return nil
	}
	st, ok := res.(table.Store)
	if !ok {
		return nil
	}
	return view{s: st, off: v.off, size: v.size}
}
