// Package exec is the physical operator layer of the oblivious SQL
// engine and its one executor. Each operator wraps one of the
// repository's oblivious primitives (internal/core, internal/ops,
// internal/aggregate), and a query executes as a straight-line pipeline
// of operators that a Driver walks stage by stage, threading one shared
// execution context.
//
// Every operator has exactly one execution form per shape of input.
// Row-shaped data flows between stages as a RowSource of
// DefaultBatch-row batches: Scan opens one, the Streamers (Filter,
// Distinct, Sort, Semijoin, Limit) turn one into the next, the Feeders
// (Join, GroupBy, JoinAggregate) consume one into a materialized
// Relation — keyed pairs or aggregates — and Rekey turns pairs back
// into a stream. The operators that meet a materialized relation
// implement Whole: Limit and Project, and the free Sort over join
// output.
//
// The context carries a single *core.Config — store allocator (plain or
// sealed), instrumentation, cancellation — so every stage of a SQL
// query runs with the same storage backend and trace sink as a bare
// core.Join would. Obliviousness composes stage-wise: each
// operator's access pattern depends only on its input and output
// sizes, all of which are public.
package exec

import (
	"errors"
	"fmt"
	"strconv"

	"oblivjoin/internal/aggregate"
	"oblivjoin/internal/catalog"
	"oblivjoin/internal/core"
	"oblivjoin/internal/ops"
	"oblivjoin/internal/table"
)

// Context threads the shared execution state through every operator of
// one query run.
type Context struct {
	// Cfg is the one shared configuration: allocator, stats,
	// cancellation. Every operator allocates and sorts through it.
	Cfg *core.Config
	// Tables resolves table names for Scan/Semijoin/Join operators.
	Tables map[string][]table.Row
}

// Kind discriminates the shape a Relation currently has as it flows
// down the pipeline.
type Kind int

const (
	// KindNone is the empty pipeline source (before Scan).
	KindNone Kind = iota
	// KindRows is one batch of a row stream, as Project renders it.
	KindRows
	// KindPairs is keyed join output ([]table.KeyedPair).
	KindPairs
	// KindGroups is GROUP BY output.
	KindGroups
	// KindJoinStats is the §7 COUNT-over-join fast-path output.
	KindJoinStats
	// KindJoinSums is the §7 SUM-over-join fast-path output.
	KindJoinSums
	// KindResult is the projected, stringified final result.
	KindResult
)

// Relation is a materialized hand-off between operators — everything
// that is not a row stream: exactly one of the slices (or Result) is
// meaningful, selected by Kind.
type Relation struct {
	Kind      Kind
	Rows      []table.Row
	Pairs     []table.KeyedPair
	Groups    []aggregate.Group
	JoinStats []aggregate.JoinStat
	JoinSums  []aggregate.JoinSum
	Result    *Result
}

// Size returns the (public) cardinality of the relation.
func (r Relation) Size() int {
	switch r.Kind {
	case KindPairs:
		return len(r.Pairs)
	case KindGroups:
		return len(r.Groups)
	case KindJoinStats:
		return len(r.JoinStats)
	case KindJoinSums:
		return len(r.JoinSums)
	case KindResult:
		if r.Result == nil { // sink-delivered: never materialized
			return 0
		}
		return len(r.Result.Rows)
	}
	return 0
}

// Result is a finished query result: column names and stringified rows.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Operator is one physical plan stage; Name is the stage's label in
// EXPLAIN output and PlanStats reports. A stage executes through
// whichever of Scan.Source, Streamer, Feeder, Rekey.Source,
// Project.RunStream and Whole it has; Driver.Step picks by the shape of
// the previous stage's output.
type Operator interface {
	Name() string
}

// Feeder is implemented by the operators that consume a row stream
// into a materialized relation: Join, GroupBy and JoinAggregate fill
// their stores straight from the upstream batches. RunFeed owns src: it
// is closed by the time RunFeed returns.
type Feeder interface {
	Operator
	RunFeed(ctx *Context, src RowSource) (Relation, error)
}

// Whole is implemented by the operators that consume a materialized
// relation: Run takes the upstream relation and produces the downstream
// one.
type Whole interface {
	Operator
	Run(ctx *Context, in Relation) (Relation, error)
}

// ErrInternal marks failures that are the engine's fault, never the
// query's — broken pipeline invariants, missing execution state.
var ErrInternal = errors.New("internal engine error")

// malformed reports a pipeline no lowering produces: op met an input
// it has no execution form for.
func malformed(op Operator, in string) error {
	return fmt.Errorf("query: %s cannot consume %s: %w", op.Name(), in, ErrInternal)
}

// probeEvery is the row stride between cancellation probes in the
// operators' own per-row loops (Project). The
// oblivious primitives probe at their round barriers already; this
// covers the plain-Go loops over m rows, which can dominate when a
// join output is large. A fixed constant, so the probe cadence is a
// function of the (public) row count alone.
const probeEvery = 8192

// probe checks the run's context for cancellation; nil-safe so
// operators stay directly testable without an execution context.
func probe(ctx *Context) {
	if ctx != nil && ctx.Cfg != nil {
		ctx.Cfg.CheckCtx()
	}
}

func lookup(ctx *Context, name, role string) ([]table.Row, error) {
	rows, ok := ctx.Tables[name]
	if !ok {
		return nil, fmt.Errorf("query: execution%s: %w", role, &catalog.UnknownTableError{Name: name})
	}
	return rows, nil
}

// ── source and row-level operators ───────────────────────────────────

// Scan reads a registered table into the pipeline.
type Scan struct{ Table string }

// Name implements Operator.
func (s Scan) Name() string { return fmt.Sprintf("scan(%s)", s.Table) }

// Source opens the table as a row stream. The rows alias the catalog
// snapshot, which the run does not own, so the stream carries no gauge
// charge.
func (s Scan) Source(ctx *Context) (RowSource, error) {
	rows, err := lookup(ctx, s.Table, "")
	if err != nil {
		return nil, err
	}
	return newSliceSource(ctx, rows), nil
}

// Semijoin keeps the rows whose key appears in Table (an IN-subquery).
type Semijoin struct{ Table string }

// Name implements Operator.
func (s Semijoin) Name() string { return fmt.Sprintf("semijoin(%s)", s.Table) }

// Filter keeps the rows satisfying the branch-free predicate.
type Filter struct{ Pred ops.Predicate }

// Name implements Operator.
func (Filter) Name() string { return "filter[branch-free]" }

// Distinct removes duplicate rows, sorting by (key, data).
type Distinct struct{}

// Name implements Operator.
func (Distinct) Name() string { return "distinct[oblivious]" }

// Sort orders rows by (key, data). Free marks inputs that are already
// key-ordered (join output), where the sort costs nothing.
type Sort struct{ Free bool }

// Name implements Operator.
func (s Sort) Name() string {
	if s.Free {
		return "sort(key) [already ordered]"
	}
	return "sort(key)"
}

// Run implements Whole for the free sort, the only one that meets a
// relation: join output is keyed pairs, already in key order.
func (s Sort) Run(_ *Context, in Relation) (Relation, error) {
	if !s.Free {
		return Relation{}, malformed(s, "a materialized relation")
	}
	return in, nil
}

// Limit truncates its input to the first N records. Truncation of an
// already-public-size output reveals nothing new.
type Limit struct{ N int }

// Name implements Operator.
func (l Limit) Name() string { return fmt.Sprintf("limit(%d)", l.N) }

// Run implements Whole: the limit over join output and aggregates. A
// row stream goes through RunStream.
func (l Limit) Run(ctx *Context, in Relation) (Relation, error) {
	probe(ctx)
	if l.N >= in.Size() {
		return in, nil
	}
	out := in
	switch in.Kind {
	case KindPairs:
		out.Pairs = in.Pairs[:l.N]
	case KindGroups:
		out.Groups = in.Groups[:l.N]
	case KindJoinStats:
		out.JoinStats = in.JoinStats[:l.N]
	case KindJoinSums:
		out.JoinSums = in.JoinSums[:l.N]
	}
	return out, nil
}

// ── joins ────────────────────────────────────────────────────────────

// RekeySep separates the two payloads when a keyed join result is
// re-packaged as a plain relation for the next join of a chain.
const RekeySep = "+"

// Rekey converts keyed join output back into a row relation whose
// payload is the concatenation of both sides — the ToTable composition
// of §7 that makes oblivious joins chainable. A combined payload
// exceeding the fixed public width is an error (widths are public
// constants; growing them is a schema decision, not a runtime one).
//
// Payload segments are escape-encoded (see encodeSegment) so an
// accumulated payload splits unambiguously at its separators. First
// marks the chain's first rekey, whose left side is a raw scan payload
// that still needs encoding; later rekeys receive an already-encoded
// accumulation on the left. Payloads free of '+' and '\' encode as
// themselves.
type Rekey struct{ First bool }

// Name implements Operator.
func (Rekey) Name() string { return "rekey" }

// Join computes the oblivious equi-join of the incoming rows with a
// registered table, keeping the join key in the output so the result
// stays composable (core.JoinKeyedFeed2); RunFeed is its execution
// form.
type Join struct{ Table string }

// Name implements Operator.
func (j Join) Name() string { return fmt.Sprintf("oblivious-join(%s)", j.Table) }

// JoinAggregate is the §7 fast path: COUNT and SUM aggregates over a
// join computed from group dimensions alone, never materializing the
// m-row join output.
type JoinAggregate struct {
	Table string
	// SumLeft and SumRight mark the sides whose value sums the query
	// projects; either one selects the sums form of the fast path.
	SumLeft, SumRight bool
}

// Name implements Operator.
func (j JoinAggregate) Name() string {
	if j.SumLeft || j.SumRight {
		return fmt.Sprintf("join-group-sums(%s) [§7 fast path]", j.Table)
	}
	return fmt.Sprintf("join-group-stats(%s) [§7 fast path]", j.Table)
}

// RunFeed implements Feeder: the upstream stream and the right table,
// drained from the catalog in batch windows, append straight into
// Augment-Tables' combined store, as for Join. The summed sides'
// payloads are checked as they stream in, before anything is sorted. A
// side the query does not sum may hold any payload: its value parses
// to 0 and its sum is never projected.
func (j JoinAggregate) RunFeed(ctx *Context, src RowSource) (Relation, error) {
	rows, err := lookup(ctx, j.Table, "")
	if err != nil {
		src.Close()
		return Relation{}, err
	}
	right := newSliceSource(ctx, rows)
	if !j.SumLeft && !j.SumRight {
		stats, err := aggregate.JoinGroupStats(ctx.Cfg, src, right)
		return Relation{Kind: KindJoinStats, JoinStats: stats}, err
	}
	var check numericCheck
	if j.SumLeft {
		src = check.wrap(src)
	}
	if j.SumRight {
		right = check.wrap(right)
	}
	sums, err := aggregate.JoinGroupSums(ctx.Cfg, src, right, payloadValue)
	return Relation{Kind: KindJoinSums, JoinSums: sums}, err
}

// ── aggregation ──────────────────────────────────────────────────────

// GroupBy aggregates rows per key. NeedValue is set when the select
// list contains a value-consuming aggregate (SUM/MIN/MAX), requiring
// numeric payloads.
type GroupBy struct{ NeedValue bool }

// Name implements Operator.
func (GroupBy) Name() string { return "group-by[oblivious]" }

// RunFeed implements Feeder: the upstream batches fill the aggregate's
// store, their payloads checked on the way when a value is projected.
// Without one, no payload is parsed: a COUNT-only GROUP BY does no work
// whose time depends on payload contents.
func (g GroupBy) RunFeed(ctx *Context, src RowSource) (Relation, error) {
	value := zeroValue
	if g.NeedValue {
		var check numericCheck
		src = check.wrap(src)
		value = payloadValue
	}
	a, err := ctx.fillStore(src)
	if err != nil {
		return Relation{}, err
	}
	return Relation{Kind: KindGroups, Groups: aggregate.GroupBy(ctx.Cfg, a, value)}, nil
}

// payloadValue reads a payload as the unsigned decimal SUM, MIN and MAX
// aggregate. What it makes of a payload numericCheck rejects is never
// projected.
func payloadValue(d table.Data) uint64 {
	v, _ := strconv.ParseUint(table.DataString(d), 10, 64)
	return v
}

// zeroValue is the value of every payload when no aggregate reads one.
func zeroValue(table.Data) uint64 { return 0 }
