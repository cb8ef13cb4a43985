package query

import (
	"fmt"
	"sort"
	"strings"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/query/exec"
)

// This file is the logical plan layer: a typed IR between the parsed
// AST and the physical operators of internal/query/exec. The planner
// builds a linear tree of nodes from a *Query, Explain renders it by
// walking the tree, and lowering maps each node onto one physical
// operator. The plan depends only on the query shape and the catalog —
// never on table contents — which is what makes Explain itself
// oblivious.

// PlanNode is one stage of a logical plan. Plans are linear: every
// node has exactly one input (nil for the Scan leaf).
type PlanNode interface {
	// Input returns the upstream node, nil for the leaf.
	Input() PlanNode
	// Describe returns the stage's label in EXPLAIN output.
	Describe() string
}

// ScanNode reads a registered table.
type ScanNode struct{ Table string }

// SemijoinNode keeps rows whose key appears in Table (IN-subquery).
type SemijoinNode struct {
	In    PlanNode
	Table string
}

// FilterNode keeps rows satisfying the branch-free predicate.
type FilterNode struct {
	In   PlanNode
	Pred Expr
}

// JoinNode is one oblivious equi-join against a registered table.
type JoinNode struct {
	In    PlanNode
	Table string
}

// RekeyNode re-packages keyed join output as a plain relation so the
// chain's next join can consume it (§7 composition). First marks the
// chain's first rekey: it escape-encodes the raw left payload before
// accumulation (later rekeys receive an already-encoded accumulation),
// so the accumulated payload's segments stay unambiguous even when
// payloads contain the separator byte.
type RekeyNode struct {
	In    PlanNode
	First bool
}

// JoinAggNode is the §7 fast path: COUNT/SUM aggregation over a join
// computed from group dimensions without materializing the join.
// SumLeft and SumRight mark the sides the select list sums.
type JoinAggNode struct {
	In                PlanNode
	Table             string
	SumLeft, SumRight bool
}

// GroupByNode aggregates a single-payload relation per key.
type GroupByNode struct {
	In        PlanNode
	NeedValue bool // a SUM/MIN/MAX item requires numeric payloads
}

// DistinctNode removes duplicate rows.
type DistinctNode struct{ In PlanNode }

// SortNode orders rows by key; Free marks join output that is already
// ordered.
type SortNode struct {
	In   PlanNode
	Free bool
}

// LimitNode truncates the relation to its first N records.
type LimitNode struct {
	In PlanNode
	N  int
}

// ProjectNode renders the final relation; Items are concrete (star
// already expanded).
type ProjectNode struct {
	In    PlanNode
	Items []SelectItem
}

// Input implements PlanNode.
func (ScanNode) Input() PlanNode       { return nil }
func (n SemijoinNode) Input() PlanNode { return n.In }
func (n FilterNode) Input() PlanNode   { return n.In }
func (n JoinNode) Input() PlanNode     { return n.In }
func (n RekeyNode) Input() PlanNode    { return n.In }
func (n JoinAggNode) Input() PlanNode  { return n.In }
func (n GroupByNode) Input() PlanNode  { return n.In }
func (n DistinctNode) Input() PlanNode { return n.In }
func (n SortNode) Input() PlanNode     { return n.In }
func (n LimitNode) Input() PlanNode    { return n.In }
func (n ProjectNode) Input() PlanNode  { return n.In }

// Describe implements PlanNode. The labels intentionally match the
// Name() of the physical operator each node lowers to, so EXPLAIN and
// PlanStats speak the same language.
func (n ScanNode) Describe() string     { return exec.Scan{Table: n.Table}.Name() }
func (n SemijoinNode) Describe() string { return exec.Semijoin{Table: n.Table}.Name() }
func (FilterNode) Describe() string     { return exec.Filter{}.Name() }
func (n JoinNode) Describe() string     { return exec.Join{Table: n.Table}.Name() }
func (RekeyNode) Describe() string      { return exec.Rekey{}.Name() }
func (n JoinAggNode) Describe() string {
	return exec.JoinAggregate{Table: n.Table, SumLeft: n.SumLeft, SumRight: n.SumRight}.Name()
}
func (GroupByNode) Describe() string  { return exec.GroupBy{}.Name() }
func (DistinctNode) Describe() string { return exec.Distinct{}.Name() }
func (n SortNode) Describe() string   { return exec.Sort{Free: n.Free}.Name() }
func (n LimitNode) Describe() string  { return exec.Limit{N: n.N}.Name() }
func (ProjectNode) Describe() string  { return exec.Project{}.Name() }

// PlanTables lists the distinct catalog tables a plan references, in
// first-reference order — the exact set an execution must snapshot.
func PlanTables(n PlanNode) []string {
	var names []string
	seen := map[string]bool{}
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			names = append(names, t)
		}
	}
	var walk func(PlanNode)
	walk = func(n PlanNode) {
		if n == nil {
			return
		}
		walk(n.Input())
		switch v := n.(type) {
		case ScanNode:
			add(v.Table)
		case SemijoinNode:
			add(v.Table)
		case JoinNode:
			add(v.Table)
		case JoinAggNode:
			add(v.Table)
		}
	}
	walk(n)
	return names
}

// RenderPlan walks the tree leaf-to-root and joins the stage labels —
// the EXPLAIN form.
func RenderPlan(n PlanNode) string {
	var stages []string
	var walk func(PlanNode)
	walk = func(n PlanNode) {
		if n == nil {
			return
		}
		walk(n.Input())
		stages = append(stages, n.Describe())
	}
	walk(n)
	return strings.Join(stages, " → ")
}

// plan builds the logical plan for q against the engine's catalog.
func (e *Engine) plan(q *Query) (PlanNode, error) {
	if q.AsOf >= 0 {
		// The single-user engine keeps no version history; time travel
		// is a service-layer feature over the MVCC catalog.
		return nil, fmt.Errorf("query: AS OF requires the versioned catalog of the service engine")
	}
	has := func(name string) bool { _, ok := e.tables[name]; return ok }
	return BuildPlanCfg(q, has, PlanConfig{Card: tablesCard(e.tables)})
}

// PlanConfig is what the planner reads besides the query and the
// catalog's table names: public cardinalities. The zero value plans as
// if every table were empty.
type PlanConfig struct {
	// Card supplies the public row counts the semijoin order consumes;
	// nil means StaticCard{}.
	Card Card
}

func (pc PlanConfig) card() Card {
	if pc.Card == nil {
		return StaticCard{}
	}
	return pc.Card
}

// BuildPlanCfg builds the logical plan for q against a catalog known
// only through its table-existence predicate. Every referenced table
// is resolved here, so planning (and therefore Explain) reports
// unknown tables — as *catalog.UnknownTableError — without touching
// any data.
//
// The planner consults pc.Card — public row counts, never table
// contents — only to order semijoins by sub-table size. A JOIN ...
// USING chain runs in the order the query wrote it: a join's output
// size m is public only once Augment-Tables has computed it (§3.2), and
// no public size before the run bounds it, so no order chosen from
// sizes can be shown to cost less. The plan remains a pure function of
// (query, catalog, cardinalities): two databases with equal public
// sizes always yield the identical plan.
func BuildPlanCfg(q *Query, has func(string) bool, pc PlanConfig) (PlanNode, error) {
	if !has(q.From) {
		return nil, &catalog.UnknownTableError{Name: q.From}
	}
	var n PlanNode = ScanNode{Table: q.From}

	// Split WHERE into top-level conjuncts; IN-subqueries become
	// semijoins, the rest compiles to one branch-free predicate.
	var semis []string
	var predConjuncts []Expr
	for _, c := range conjuncts(q.Where) {
		if in, ok := c.(In); ok {
			if !has(in.Table) {
				return nil, &catalog.UnknownTableError{Name: in.Table}
			}
			semis = append(semis, in.Table)
			continue
		}
		if containsIn(c) {
			return nil, fmt.Errorf("query: IN (SELECT …) must be a top-level AND conjunct")
		}
		predConjuncts = append(predConjuncts, c)
	}
	// Semijoins run smallest sub-table first. The rewrite is byte-safe:
	// semijoin predicates read only public key structure, and each
	// semijoin re-sorts its survivors into (key, data) order, so the
	// surviving row sequence is order-independent.
	for _, t := range orderSemis(semis, pc.card()) {
		n = SemijoinNode{In: n, Table: t}
	}
	if len(predConjuncts) > 0 {
		n = FilterNode{In: n, Pred: andAll(predConjuncts)}
	}

	for _, t := range q.Joins {
		if !has(t) {
			return nil, &catalog.UnknownTableError{Name: t}
		}
	}

	needValue, sumLeft, sumRight := false, false, false
	for _, it := range q.Select {
		if it.Agg == AggSum || it.Agg == AggMin || it.Agg == AggMax {
			needValue = true
		}
		if it.Agg == AggSum {
			sumRight = sumRight || it.Col == ColRightData
			sumLeft = sumLeft || it.Col != ColRightData
		}
	}

	switch {
	case q.Joined():
		// All but the last join materialize and re-key. With GROUP BY
		// the last one runs as the §7 aggregation fast path — COUNT and
		// SUM need the group dimensions, never the m-row expansion.
		last := len(q.Joins) - 1
		for i, t := range q.Joins[:last] {
			n = JoinNode{In: n, Table: t}
			n = RekeyNode{In: n, First: i == 0}
		}
		if q.GroupBy {
			n = JoinAggNode{In: n, Table: q.Joins[last], SumLeft: sumLeft, SumRight: sumRight}
			break
		}
		n = JoinNode{In: n, Table: q.Joins[last]}
		if q.OrderBy {
			// Join output is already key-ordered (S1 is sorted by
			// (j, d)), so ORDER BY key is free; keep the stage in the
			// plan for transparency.
			n = SortNode{In: n, Free: true}
		}
	case q.GroupBy:
		n = GroupByNode{In: n, NeedValue: needValue}
	case q.Distinct:
		n = DistinctNode{In: n}
	case q.OrderBy:
		n = SortNode{In: n}
	}

	if q.Limit >= 0 {
		n = LimitNode{In: n, N: q.Limit}
	}
	return ProjectNode{In: n, Items: expandStar(q)}, nil
}

// orderSemis orders semijoin sub-tables by ascending public row count
// (appearance order on ties). Each semijoin sorts n+s elements, so
// running cheap shrinking semijoins first can only reduce later sorts.
func orderSemis(semis []string, card Card) []string {
	if len(semis) < 2 {
		return semis
	}
	type st struct {
		t    string
		rows int
		idx  int
	}
	ordered := make([]st, len(semis))
	for i, t := range semis {
		rows, _ := card.Rows(t)
		ordered[i] = st{t: t, rows: rows, idx: i}
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].rows != ordered[b].rows {
			return ordered[a].rows < ordered[b].rows
		}
		return ordered[a].idx < ordered[b].idx
	})
	out := make([]string, len(semis))
	for i, s := range ordered {
		out[i] = s.t
	}
	return out
}

// LowerPlan maps a logical plan onto its physical operator pipeline.
// The operators are immutable values: one lowered pipeline may execute
// from any number of goroutines at once, each run threading its own
// exec.Context.
func LowerPlan(n PlanNode) ([]exec.Operator, error) { return lower(n) }

// lower maps the logical plan onto its physical operator pipeline,
// leaf first.
func lower(n PlanNode) ([]exec.Operator, error) {
	if n == nil {
		return nil, nil
	}
	ops, err := lower(n.Input())
	if err != nil {
		return nil, err
	}
	var op exec.Operator
	switch v := n.(type) {
	case ScanNode:
		op = exec.Scan{Table: v.Table}
	case SemijoinNode:
		op = exec.Semijoin{Table: v.Table}
	case FilterNode:
		op = exec.Filter{Pred: compile(v.Pred)}
	case JoinNode:
		op = exec.Join{Table: v.Table}
	case RekeyNode:
		op = exec.Rekey{First: v.First}
	case JoinAggNode:
		op = exec.JoinAggregate{Table: v.Table, SumLeft: v.SumLeft, SumRight: v.SumRight}
	case GroupByNode:
		op = exec.GroupBy{NeedValue: v.NeedValue}
	case DistinctNode:
		op = exec.Distinct{}
	case SortNode:
		op = exec.Sort{Free: v.Free}
	case LimitNode:
		op = exec.Limit{N: v.N}
	case ProjectNode:
		op = exec.Project{Items: lowerItems(v.Items)}
	default:
		return nil, fmt.Errorf("query: cannot lower plan node %T", n)
	}
	return append(ops, op), nil
}

func lowerItems(items []SelectItem) []exec.ProjItem {
	out := make([]exec.ProjItem, len(items))
	for i, it := range items {
		out[i] = exec.ProjItem{Col: lowerCol(it.Col), Agg: lowerAgg(it.Agg)}
	}
	return out
}

func lowerCol(c ColKind) exec.Col {
	switch c {
	case ColKey:
		return exec.ColKey
	case ColLeftData:
		return exec.ColLeftData
	case ColRightData:
		return exec.ColRightData
	default:
		return exec.ColData
	}
}

func lowerAgg(a AggKind) exec.Agg {
	switch a {
	case AggCount:
		return exec.AggCount
	case AggSum:
		return exec.AggSum
	case AggMin:
		return exec.AggMin
	case AggMax:
		return exec.AggMax
	default:
		return exec.AggNone
	}
}

// expandStar replaces * with the concrete columns available for the
// query's shape.
func expandStar(q *Query) []SelectItem {
	var out []SelectItem
	for _, it := range q.Select {
		if it.Col != ColStar {
			out = append(out, it)
			continue
		}
		if q.Joined() {
			out = append(out,
				SelectItem{Col: ColKey},
				SelectItem{Col: ColLeftData},
				SelectItem{Col: ColRightData})
		} else {
			out = append(out, SelectItem{Col: ColKey}, SelectItem{Col: ColData})
		}
	}
	return out
}
