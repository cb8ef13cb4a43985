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
	"time"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/table"
)

// SortNet selects which sorting network the join uses.
type SortNet int

const (
	// Bitonic is Batcher's bitonic sorter, the paper's default.
	Bitonic SortNet = iota
	// MergeExchange is Batcher's odd-even merge-exchange sort; fewer
	// comparators, less regular rounds. Used in ablations.
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
	// wall times (the Table 3 instrumentation).
	Stats *Stats
	// Workers is ignored; execution is sequential and unsharded; kept
	// only because benchmarks/ names it (ROADMAP 'A benchmark-archetype
	// PR').
	Workers int
	// Ctx, when non-nil and cancellable, makes the run abortable: the
	// sorting networks, routing waves and blocked scans probe it at
	// round and block boundaries and abort by panicking with
	// an Abort (see cancel.go) within one round of cancellation. A nil
	// context (or context.Background()) costs nothing. The probe
	// cadence is a fixed function of the public input sizes, so
	// cancellation support leaks nothing about table contents.
	Ctx context.Context
	// Mem, when non-nil, is the run's allocation gauge: every store
	// handed out by Alloc is tracked in it, the query driver charges
	// relation hand-off buffers to it, and the streaming stages release
	// what they have drained through ReleaseStore. The query layer uses
	// it to report PeakBytes/TotalAllocBytes.
	Mem *table.Gauge
}

// ReleaseStore marks st dead for the run's allocation gauge; a no-op
// without a gauge. The feed-based join and the streaming stages call it
// the moment an intermediate store is fully drained.
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

// Comparators returns the total compare–exchange count across every
// sorting network the run executed, all phases included.
func (s *Stats) Comparators() uint64 {
	return s.AugmentSort.CompareExchanges +
		s.DistributeSort.CompareExchanges +
		s.AlignSort.CompareExchanges +
		s.RelationalSort.CompareExchanges
}

// SortStore runs the configured sorting network over st. Comparator
// counts land in bs (nil to skip). It is exported so the relational
// operators (internal/ops, internal/aggregate) sort through the same
// Config — one knob for network choice, cancellation and
// instrumentation across the whole query pipeline.
func (c *Config) SortStore(st table.Store, less bitonic.LessFunc[table.Entry], bs *bitonic.Stats) {
	if c.Net == MergeExchange {
		bitonic.MergeExchangeSortCheck[table.Entry](st, less, table.CondSwapEntry, bs, c.checkFn())
		return
	}
	bitonic.SortCheck[table.Entry](st, less, table.CondSwapEntry, bs, c.checkFn())
}

func (c *Config) stats() *Stats {
	if c.Stats != nil {
		return c.Stats
	}
	return &Stats{} // discarded scratch so call sites stay branch-light
}

// view is a windowed alias of a Store: the augmented TC is split into T1
// and T2 as two regions of the same array (§6.2's space accounting
// depends on this).
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
