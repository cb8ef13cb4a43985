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
// stores. A nil ctx means context.Background().
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

// allocStack assembles the run's allocator — the store mode, tracked
// in a fresh gauge — over a fresh memory space recording into rec.
func allocStack(opts Options, cipher *crypto.Cipher, rec trace.Recorder) (table.Alloc, *table.Gauge) {
	sp := memory.NewSpace(rec, nil)
	alloc := table.PlainAlloc(sp)
	if opts.Encrypted {
		alloc = table.BlockEncryptedAlloc(sp, cipher, table.DefaultSealedBlock)
	}
	g := &table.Gauge{}
	return table.TrackedAlloc(alloc, g), g
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
	//   - storage faults, a *table.Fault panic from a sealed store
	//     (auth failure), mapped to an error wrapping
	//     table.ErrSealedAuth.
	//
	// Either way the failure kills this query alone: its scratch stores
	// are private to the run and left to the garbage collector, and
	// concurrent runs share nothing mutable with this one.
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
	// Every store the run allocates is tracked in the run's own gauge,
	// which PlanStats reads below and which dies with the run.
	alloc, gauge := allocStack(opts, cipher, rec)

	collect := opts.CollectStats || opts.TraceHash
	var coreStats *core.Stats
	if collect {
		coreStats = &core.Stats{}
	}
	cfg := &core.Config{
		Alloc: alloc,
		Stats: coreStats,
		Ctx:   ctx,
		Mem:   gauge,
	}
	ectx := &exec.Context{Cfg: cfg, Tables: tables}

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
		if hasher != nil {
			ps.TraceEvents = hasher.Count()
			ps.TraceHash = hasher.Hex()
		} else if counter != nil {
			ps.TraceEvents = counter.Total()
		}
	}
	return res, ps, nil
}
