package query

import (
	"context"
	"fmt"
	"strings"
	"time"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/ops"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
)

// Options configures how an Engine executes its plans. The zero value
// is the sequential, plaintext, uninstrumented engine.
type Options struct {
	// Workers is ignored; execution is sequential and unsharded; kept
	// only because benchmarks/ names it (ROADMAP 'A benchmark-archetype
	// PR').
	Workers int
	// Encrypted stores every intermediate entry AES-sealed in public
	// memory under a per-engine random key, table.DefaultSealedBlock
	// entries per ciphertext block. Results and traces are identical to
	// the plain store's.
	Encrypted bool
	// CollectStats records a PlanStats report for each query,
	// retrievable via LastStats.
	CollectStats bool
	// TraceHash additionally chains every public-memory access into a
	// SHA-256 trace hash (the §6.1 construction), reported in
	// PlanStats.TraceHash. Implies stats collection.
	TraceHash bool
	// Shards is ignored; execution is sequential and unsharded; kept
	// only because benchmarks/ names it (ROADMAP 'A benchmark-archetype
	// PR').
	Shards int
}

// PlanStats is the per-query execution report: one entry per physical
// operator plus whole-run instrumentation, the SQL-layer counterpart of
// core.Stats.
type PlanStats struct {
	// Operators lists the pipeline stages in execution order.
	Operators []OperatorStat
	// Comparators counts compare–exchanges across every sorting network
	// the query executed; a fixed function of table sizes.
	Comparators uint64
	// RouteOps counts compare–hop steps of the distribute routing loops.
	RouteOps uint64
	// TraceEvents counts public-memory accesses (reads + writes).
	TraceEvents uint64
	// TraceHash is the hex SHA-256 access-pattern digest when
	// Options.TraceHash is set.
	TraceHash string
	// PeakBytes is the high-water mark of the run's tracked memory:
	// stores charged at allocation, relation hand-offs charged at fixed
	// per-record weights, both discharged at their release points. A
	// deterministic function of the pipeline, the (public) sizes and
	// the store mode — not a live heap sample — so it is reproducible
	// and CI-gateable.
	PeakBytes int64
	// TotalAllocBytes is the cumulative tracked bytes ever charged.
	TotalAllocBytes int64
	// Total is the end-to-end execution wall time.
	Total time.Duration
	// CacheHit reports that the query executed from a cached prepared
	// plan. Set only by the service layer; always false for direct
	// Engine queries.
	CacheHit bool
}

// OperatorStat is one pipeline stage's report.
type OperatorStat struct {
	// Op is the stage label (matches the EXPLAIN stage).
	Op string
	// Wall is the stage's execution time.
	Wall time.Duration
	// Rows is the stage's (public) output cardinality.
	Rows int
}

// String renders the report as an aligned table.
func (s *PlanStats) String() string {
	var b strings.Builder
	for _, op := range s.Operators {
		fmt.Fprintf(&b, "%-40s %12s %8d rows\n", op.Op, op.Wall.Round(time.Microsecond), op.Rows)
	}
	fmt.Fprintf(&b, "%-40s %12s\n", "total", s.Total.Round(time.Microsecond))
	fmt.Fprintf(&b, "comparators=%d route-ops=%d trace-events=%d", s.Comparators, s.RouteOps, s.TraceEvents)
	fmt.Fprintf(&b, "\npeak-bytes=%d total-alloc-bytes=%d", s.PeakBytes, s.TotalAllocBytes)
	if s.TraceHash != "" {
		fmt.Fprintf(&b, "\ntrace-hash=%s", s.TraceHash)
	}
	return b.String()
}

// Engine executes parsed queries against registered tables using only
// oblivious operators. It is not safe for concurrent use.
type Engine struct {
	tables map[string][]table.Row
	opts   Options
	cipher *crypto.Cipher // lazily created when opts.Encrypted
	last   *PlanStats
}

// NewEngine returns an empty engine with default Options.
func NewEngine() *Engine {
	return NewEngineWith(Options{})
}

// NewEngineWith returns an empty engine executing with o.
func NewEngineWith(o Options) *Engine {
	return &Engine{tables: map[string][]table.Row{}, opts: o}
}

// Register makes rows queryable under name (normalized by
// catalog.Normalize, so the engine and the service accept the same
// name grammar). Re-registering a name replaces the table.
func (e *Engine) Register(name string, rows []table.Row) error {
	name, err := catalog.Normalize(name)
	if err != nil {
		return err
	}
	e.tables[name] = rows
	return nil
}

// Result is a query result: column names and stringified rows.
type Result = exec.Result

// Query parses, plans and executes a SELECT statement.
func (e *Engine) Query(src string) (*Result, error) {
	e.last = nil // a failed query, at any stage, leaves no report
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	pipeline, err := lower(plan)
	if err != nil {
		return nil, err
	}
	return e.execute(pipeline)
}

// Explain parses and plans the statement and renders the oblivious
// plan Query would execute, without executing anything on the data:
// the plan depends only on the query shape and the catalog, never on
// table contents.
func (e *Engine) Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := e.plan(q)
	if err != nil {
		return "", err
	}
	return RenderPlan(plan), nil
}

// PlanCost parses and plans the statement and returns the modeled cost
// report — exact comparator counts, route ops and padded store
// footprints per stage, computed from public cardinalities alone.
func (e *Engine) PlanCost(src string) (*PlanCostReport, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := e.plan(q)
	if err != nil {
		return nil, err
	}
	return ComputePlanCost(plan, tablesCard(e.tables), e.opts), nil
}

// ExplainCost renders the plan together with its modeled cost table.
// Like Explain, it executes nothing and reads no table contents.
func (e *Engine) ExplainCost(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := e.plan(q)
	if err != nil {
		return "", err
	}
	rep := ComputePlanCost(plan, tablesCard(e.tables), e.opts)
	return RenderPlan(plan) + "\n\n" + RenderPlanCost(rep), nil
}

// LastStats returns the PlanStats of the most recent successful Query,
// or nil when stats collection is off (or no query ran yet).
func (e *Engine) LastStats() *PlanStats { return e.last }

// execute runs the physical pipeline through Run and reports the
// projected result, keeping the stats report for LastStats.
func (e *Engine) execute(pipeline []exec.Operator) (*Result, error) {
	if e.opts.Encrypted && e.cipher == nil {
		c, _, err := crypto.NewRandom()
		if err != nil {
			return nil, fmt.Errorf("query: encrypted store: %w", err)
		}
		e.cipher = c
	}
	res, ps, err := Run(context.Background(), e.opts, e.cipher, e.tables, pipeline)
	if err != nil {
		return nil, err
	}
	if ps != nil {
		e.last = ps
	}
	return res, nil
}

// conjuncts flattens the AND-tree of a predicate; nil yields none.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []Expr{e}
}

func containsIn(e Expr) bool {
	switch v := e.(type) {
	case In:
		return true
	case Not:
		return containsIn(v.E)
	case And:
		return containsIn(v.L) || containsIn(v.R)
	case Or:
		return containsIn(v.L) || containsIn(v.R)
	default:
		return false
	}
}

func andAll(es []Expr) Expr {
	e := es[0]
	for _, r := range es[1:] {
		e = And{L: e, R: r}
	}
	return e
}

// compile turns a predicate AST into a branch-free row predicate. Every
// comparison evaluates on every row regardless of short-circuitable
// structure, so the filter's work is a fixed function of the query, not
// of the data.
func compile(e Expr) ops.Predicate {
	f := compileExpr(e)
	return func(r table.Row) uint64 { return f(r.J) }
}

func compileExpr(e Expr) func(uint64) uint64 {
	switch v := e.(type) {
	case Cmp:
		lit := v.Lit
		switch v.Op {
		case "=":
			return func(k uint64) uint64 { return obliv.Eq(k, lit) }
		case "!=":
			return func(k uint64) uint64 { return obliv.Neq(k, lit) }
		case "<":
			return func(k uint64) uint64 { return obliv.Less(k, lit) }
		case "<=":
			return func(k uint64) uint64 { return obliv.LessEq(k, lit) }
		case ">":
			return func(k uint64) uint64 { return obliv.Greater(k, lit) }
		default: // ">="
			return func(k uint64) uint64 { return obliv.GreaterEq(k, lit) }
		}
	case Between:
		lo, hi := v.Lo, v.Hi
		return func(k uint64) uint64 {
			return obliv.And(obliv.GreaterEq(k, lo), obliv.LessEq(k, hi))
		}
	case Not:
		inner := compileExpr(v.E)
		return func(k uint64) uint64 { return obliv.Not(inner(k)) }
	case And:
		l, r := compileExpr(v.L), compileExpr(v.R)
		return func(k uint64) uint64 { return obliv.And(l(k), r(k)) }
	case Or:
		l, r := compileExpr(v.L), compileExpr(v.R)
		return func(k uint64) uint64 { return obliv.Or(l(k), r(k)) }
	default:
		panic(fmt.Sprintf("query: cannot compile %T", e))
	}
}
