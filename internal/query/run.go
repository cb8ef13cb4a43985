package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/shard"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// ErrInternal marks failures that are the engine's fault, never the
// query's — broken pipeline invariants, missing execution state.
// Callers (e.g. the HTTP layer) test with errors.Is to report them as
// server faults.
var ErrInternal = exec.ErrInternal

// ErrCanceled is the typed error of a query whose context was
// cancelled mid-run. The returned error wraps both this sentinel and
// context.Canceled, so errors.Is matches either.
var ErrCanceled = errors.New("query canceled")

// ErrDeadline is the typed error of a query whose context deadline
// expired mid-run (a per-query timeout or a caller-supplied deadline).
// The returned error wraps both this sentinel and
// context.DeadlineExceeded.
var ErrDeadline = errors.New("query deadline exceeded")

// ctxErr maps a context error onto the engine's typed sentinels,
// wrapping both so callers can match whichever vocabulary they speak.
func ctxErr(cause error) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("query: %w: %w", ErrDeadline, cause)
	}
	return fmt.Errorf("query: %w: %w", ErrCanceled, cause)
}

// Run executes a lowered physical pipeline against tables under opts
// and returns the projected result plus, when opts collects, the
// PlanStats report (nil otherwise).
//
// The pipeline executes on the one executor, exec.Driver: row-shaped
// relations flow between operators as block-granular batches, barrier
// operators fill their stores straight from the upstream batches, and
// each intermediate store is released the moment it is drained — so
// peak memory is bounded by the widest adjacent pair of stages, not
// the sum of every intermediate.
//
// Each call assembles a private execution context — a fresh memory
// space, trace sink, allocation gauge and core.Config — so the same
// pipeline and the same table snapshot can Run from any number of
// goroutines at once; only cipher is shared, and crypto.Cipher is safe
// for concurrent use. cipher must be non-nil when opts.Encrypted is
// set.
//
// Cancelling ctx (or letting its deadline expire) stops the run within
// one execution round of the innermost oblivious pass — the sorting
// networks, routing waves, blocked scans and the batch drivers all
// probe the context — and returns an error wrapping ErrCanceled or
// ErrDeadline. An aborted run abandons only its private scratch
// stores (spill files included: the run's gauge deletes them on the
// way out). A nil ctx means context.Background().
func Run(ctx context.Context, opts Options, cipher *crypto.Cipher, tables map[string][]table.Row, pipeline []exec.Operator) (*Result, *PlanStats, error) {
	return run(ctx, opts, cipher, tables, pipeline, nil)
}

// RunStream executes pipeline and delivers the result incrementally
// to sink — Columns once, then the output rows in order, batch by
// batch — so the final result is never materialized and the run's peak
// memory is bounded by its widest stage. Everything else matches Run:
// same options, same concurrency contract, same cancellation behavior,
// same canonical trace.
func RunStream(ctx context.Context, opts Options, cipher *crypto.Cipher, tables map[string][]table.Row, pipeline []exec.Operator, sink exec.RowSink) (*PlanStats, error) {
	if sink == nil {
		return nil, fmt.Errorf("query: RunStream needs a sink: %w", ErrInternal)
	}
	_, ps, err := run(ctx, opts, cipher, tables, pipeline, sink)
	return ps, err
}

// allocStack assembles one execution context's allocator chain — store
// mode, gauge tracking, optional sealed spilling under budget — over a
// fresh memory space recording into rec. The run's own context and the
// sharded scheduler's per-unit contexts build through the same stack,
// which is what makes a per-shard trace bit-identical to a standalone
// run of the same sizes in the same mode. sc may be nil when budget
// is 0.
func allocStack(opts Options, cipher, sc *crypto.Cipher, rec trace.Recorder, budget int64) (table.Alloc, *table.Gauge) {
	sp := memory.NewSpace(rec, nil)
	alloc := table.PlainAlloc(sp)
	if opts.Encrypted {
		alloc = table.BlockEncryptedAlloc(sp, cipher, table.DefaultSealedBlock)
	}
	g := &table.Gauge{}
	alloc = table.TrackedAlloc(alloc, g)
	if budget > 0 {
		spiller := table.NewSpillerFS(sp, sc, opts.SpillFS, opts.SpillDir, table.DefaultSealedBlock, g)
		alloc = table.BudgetAlloc(alloc, spiller, g, budget, modeFootprint(opts))
	}
	return alloc, g
}

// unitFactory returns the sharded scheduler's Unit constructor: each
// unit mirrors the run's own execution context — same store mode, same
// spill policy over a budget share — with private trace sink, memory
// space and gauge, so units execute concurrently with no shared mutable
// instrumentation and their digests fold back into the run at
// deterministic barriers.
func unitFactory(ctx context.Context, opts Options, cipher, sc *crypto.Cipher, collect bool) func() *shard.Unit {
	budget := opts.MemBudget
	if budget > 0 {
		// Units run concurrently: each gets an equal share of the run's
		// budget so the combined live total stays near the configured
		// bound.
		budget /= int64(opts.Shards)
		if budget < 1 {
			budget = 1
		}
	}
	return func() *shard.Unit {
		var (
			urec trace.Recorder
			uh   *trace.Hasher
			uc   *trace.Counter
		)
		if opts.TraceHash {
			uh = trace.NewHasher()
			urec = uh
		} else if opts.CollectStats {
			uc = &trace.Counter{}
			urec = uc
		}
		alloc, g := allocStack(opts, cipher, sc, urec, budget)
		var ust *core.Stats
		if collect {
			ust = &core.Stats{}
		}
		return &shard.Unit{
			Cfg: &core.Config{
				Alloc:  alloc,
				Stats:  ust,
				Ctx:    ctx,
				Mem:    g,
				Shards: 1,
			},
			Hasher:  uh,
			Counter: uc,
			Gauge:   g,
		}
	}
}

// modeFootprint returns the in-memory footprint model of the run's
// store mode, used to predict whether an allocation fits the budget.
func modeFootprint(opts Options) func(n int) int64 {
	if opts.Encrypted {
		return func(n int) int64 { return table.BlockFootprint(n, table.DefaultSealedBlock) }
	}
	return table.PlainFootprint
}

func run(ctx context.Context, opts Options, cipher *crypto.Cipher, tables map[string][]table.Row, pipeline []exec.Operator, sink exec.RowSink) (res *Result, ps *PlanStats, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancellable := ctx.Done() != nil
	if cancellable {
		// Refuse cheaply before assembling anything.
		if cause := ctx.Err(); cause != nil {
			return nil, nil, ctxErr(cause)
		}
	}
	// The oblivious operator stack has no error returns on its hot
	// paths; two kinds of failure surface as panics, both recovered
	// here — exactly once, on the goroutine that called run:
	//
	//   - cancellation, a core.Abort panic from a round barrier, mapped
	//     to ErrCanceled/ErrDeadline;
	//   - storage faults, a *table.Fault panic from a sealed store or
	//     spill file (auth failure or disk IO error), mapped to an
	//     error wrapping table.ErrSealedAuth or table.ErrSpillIO.
	//
	// Either way the failure kills this query alone: the deferred
	// gauge.ReleaseAll (installed below, so it runs first) has already
	// reclaimed the run's scratch, and concurrent runs share nothing
	// mutable with this one.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ab, ok := r.(core.Abort); ok {
			res, ps = nil, nil
			err = ctxErr(ab.Err)
			return
		}
		if ferr, ok := table.AsFault(r); ok {
			res, ps = nil, nil
			err = fmt.Errorf("query: storage fault: %w", ferr)
			return
		}
		panic(r)
	}()

	var (
		rec     trace.Recorder
		hasher  *trace.Hasher
		counter *trace.Counter
	)
	if opts.TraceHash {
		hasher = trace.NewHasher()
		rec = hasher
	} else if opts.CollectStats {
		counter = &trace.Counter{}
		rec = counter
	}
	if opts.Encrypted && cipher == nil {
		return nil, nil, fmt.Errorf("query: encrypted execution without a cipher: %w", ErrInternal)
	}
	var sc *crypto.Cipher
	if opts.MemBudget > 0 {
		sc = cipher
		if sc == nil {
			// Plain-mode spill still seals its on-disk blocks: a fresh
			// per-run key, never persisted, is all the file needs.
			c, _, cerr := crypto.NewRandom()
			if cerr != nil {
				return nil, nil, fmt.Errorf("query: spill cipher: %w", cerr)
			}
			sc = c
		}
	}

	// Every store the run allocates is tracked in the gauge; ReleaseAll
	// frees whatever is still live on the way out — including spill
	// files abandoned by an error or a cancellation panic.
	alloc, gauge := allocStack(opts, cipher, sc, rec, opts.MemBudget)
	defer gauge.ReleaseAll()

	collect := opts.CollectStats || opts.TraceHash
	var coreStats *core.Stats
	if collect {
		coreStats = &core.Stats{}
	}
	cfg := &core.Config{
		Alloc:   alloc,
		Workers: opts.Workers,
		Stats:   coreStats,
		Ctx:     ctx,
		Mem:     gauge,
		Shards:  opts.Shards,
	}
	ectx := &exec.Context{Cfg: cfg, Tables: tables}
	if opts.Shards > 1 {
		ectx.Shard = &shard.Group{
			Parent:  cfg,
			Shards:  opts.Shards,
			Hasher:  hasher,
			Counter: counter,
			Gauge:   gauge,
			New:     unitFactory(ctx, opts, cipher, sc, collect),
		}
	}

	if collect {
		ps = &PlanStats{}
	}
	record := func(op exec.Operator, start time.Time, rows int) {
		if ps == nil {
			return
		}
		wall := time.Since(start)
		ps.Operators = append(ps.Operators, OperatorStat{Op: op.Name(), Wall: wall, Rows: rows})
		ps.Total += wall
	}

	d := exec.NewDriver(ectx, gauge, sink)
	defer d.Close()
	for _, op := range pipeline {
		if cancellable {
			if cause := ctx.Err(); cause != nil {
				return nil, nil, ctxErr(cause)
			}
		}
		start := time.Now()
		if err = d.Step(op); err != nil {
			return nil, nil, err
		}
		record(op, start, d.OutRows())
	}
	if res, err = d.Result(); err != nil {
		return nil, nil, err
	}
	if ps != nil {
		ps.Comparators = coreStats.Comparators()
		ps.RouteOps = coreStats.RouteOps
		ps.PeakBytes = gauge.Peak()
		ps.TotalAllocBytes = gauge.Total()
		ps.SpillCount = gauge.Spills()
		ps.SpillBytes = gauge.SpillBytes()
		if hasher != nil {
			ps.TraceEvents = hasher.Count()
			ps.TraceHash = hasher.Hex()
		} else if counter != nil {
			ps.TraceEvents = counter.Total()
		}
	}
	return res, ps, nil
}
