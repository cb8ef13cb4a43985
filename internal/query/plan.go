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

// ScanNode reads a registered table. Cols, set by the cost-aware
// planner, annotates which columns downstream stages actually consume
// ("key" when every payload byte is dead). Rows are fixed-width, so
// the annotation changes no access pattern — it documents, in EXPLAIN
// and in the cost report, that the payload contributes nothing.
type ScanNode struct {
	Table string
	Cols  string
}

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
// so a Restore stage can split the accumulated payload unambiguously
// even when payloads contain the separator byte.
type RekeyNode struct {
	In    PlanNode
	First bool
}

// RestoreNode finalizes a cost-planned multi-way join chain: it maps
// the executed join order's payload layout back onto the written order
// and canonically sorts the output, making reordered and written-order
// plans byte-identical (see exec.Restore). Perm maps written table
// slots onto execution slots; the identity permutation canonicalizes
// without rewriting.
type RestoreNode struct {
	In   PlanNode
	Perm []int
}

// JoinAggNode is the §7 fast path: COUNT/SUM aggregation over a join
// computed from group dimensions without materializing the join.
type JoinAggNode struct {
	In    PlanNode
	Table string
	Sum   bool
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
func (n RestoreNode) Input() PlanNode  { return n.In }
func (n JoinAggNode) Input() PlanNode  { return n.In }
func (n GroupByNode) Input() PlanNode  { return n.In }
func (n DistinctNode) Input() PlanNode { return n.In }
func (n SortNode) Input() PlanNode     { return n.In }
func (n LimitNode) Input() PlanNode    { return n.In }
func (n ProjectNode) Input() PlanNode  { return n.In }

// Describe implements PlanNode. The labels intentionally match the
// Name() of the physical operator each node lowers to, so EXPLAIN and
// PlanStats speak the same language.
func (n ScanNode) Describe() string {
	if n.Cols != "" {
		return fmt.Sprintf("scan(%s cols=%s)", n.Table, n.Cols)
	}
	return exec.Scan{Table: n.Table}.Name()
}
func (n SemijoinNode) Describe() string { return exec.Semijoin{Table: n.Table}.Name() }
func (FilterNode) Describe() string     { return exec.Filter{}.Name() }
func (n JoinNode) Describe() string     { return exec.Join{Table: n.Table}.Name() }
func (RekeyNode) Describe() string      { return exec.Rekey{}.Name() }
func (n RestoreNode) Describe() string  { return exec.Restore{Perm: n.Perm}.Name() }
func (n JoinAggNode) Describe() string {
	return exec.JoinAggregate{Table: n.Table, Sum: n.Sum}.Name()
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

// JoinChain returns the plan's base scan table and the joined tables
// in execution order — the chain identity the service layer's
// adaptive-feedback channel keys observed join output sizes by.
func JoinChain(n PlanNode) (from string, joins []string) {
	var walk func(PlanNode)
	walk = func(n PlanNode) {
		if n == nil {
			return
		}
		walk(n.Input())
		switch v := n.(type) {
		case ScanNode:
			from = v.Table
		case JoinNode:
			joins = append(joins, v.Table)
		}
	}
	walk(n)
	return from, joins
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
	if e.opts.CostPlan {
		return BuildPlanCfg(q, has, PlanConfig{
			CostPlan: true,
			Card:     tablesCard(e.tables),
			Opts:     e.opts,
		})
	}
	return BuildPlan(q, has)
}

// PlanConfig configures the cost-aware planner. The zero value is the
// default planner: written join order, no pushdown, no Restore stage —
// plans and result bytes exactly as previous releases produced them.
type PlanConfig struct {
	// CostPlan enables cost-based join ordering and predicate pushdown.
	// Every ≥3-table plain join chain then ends in a Restore stage, so
	// any ordering choice yields the same canonical output bytes.
	CostPlan bool
	// NoReorder keeps the written join order while still planning in
	// cost mode (pushdown + Restore canonicalization). This is the
	// byte-identity baseline the planner tests and the benchmark
	// compare the greedy order against.
	NoReorder bool
	// Card supplies the public cardinalities the ordering decision
	// consumes. Nil plans as if every table were empty (deterministic,
	// but orders nothing usefully).
	Card Card
	// Opts selects the store mode the cost model prices with.
	Opts Options
}

func (pc PlanConfig) card() Card {
	if pc.Card == nil {
		return StaticCard{}
	}
	return pc.Card
}

// BuildPlan builds the logical plan for q against a catalog known only
// through its table-existence predicate, with the default planner.
func BuildPlan(q *Query, has func(string) bool) (PlanNode, error) {
	return BuildPlanCfg(q, has, PlanConfig{})
}

// BuildPlanCfg builds the logical plan for q against a catalog known
// only through its table-existence predicate. Every referenced table
// is resolved here, so planning (and therefore Explain) reports
// unknown tables — as *catalog.UnknownTableError — without touching
// any data.
//
// With pc.CostPlan set the planner additionally consults pc.Card —
// public row counts and (optionally) observed join output sizes, never
// table contents — to greedily order JOIN ... USING chains, push the
// filter below the semijoins, order semijoins by sub-table size, and
// annotate scans with the columns downstream stages consume. The plan
// remains a pure function of (query, catalog, cardinalities, options):
// two databases with equal public sizes always yield the identical
// plan.
func BuildPlanCfg(q *Query, has func(string) bool, pc PlanConfig) (PlanNode, error) {
	if !has(q.From) {
		return nil, &catalog.UnknownTableError{Name: q.From}
	}
	scan := ScanNode{Table: q.From}
	if pc.CostPlan && !scanNeedsData(q) {
		scan.Cols = "key"
	}
	var n PlanNode = scan

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
	pred := len(predConjuncts) > 0
	if pc.CostPlan {
		// Pushdown: the filter (a comparator-free scan over key bits)
		// runs first, shrinking every semijoin's sort; semijoins then
		// run smallest sub-table first. Both rewrites are byte-safe:
		// filter and semijoin predicates read only public key structure,
		// and each semijoin re-sorts its survivors into (key, data)
		// order, so the surviving row sequence is order-independent.
		if pred {
			n = FilterNode{In: n, Pred: andAll(predConjuncts)}
			pred = false
		}
		semis = orderSemis(semis, pc.card())
	}
	for _, t := range semis {
		n = SemijoinNode{In: n, Table: t}
	}
	if pred {
		n = FilterNode{In: n, Pred: andAll(predConjuncts)}
	}

	for _, t := range q.Joins {
		if !has(t) {
			return nil, &catalog.UnknownTableError{Name: t}
		}
	}

	needValue := false
	for _, it := range q.Select {
		if it.Agg == AggSum || it.Agg == AggMin || it.Agg == AggMax {
			needValue = true
		}
	}

	switch {
	case q.Joined() && q.GroupBy:
		// All but the last join materialize and re-key; the last one
		// runs as the §7 aggregation fast path — COUNT and SUM need the
		// group dimensions, never the m-row expansion. The fast path
		// pins the written order even in cost mode: its SUM payloads
		// parse positionally, so reordering would change aggregate
		// inputs, not just layout.
		for i, t := range q.Joins[:len(q.Joins)-1] {
			n = JoinNode{In: n, Table: t}
			n = RekeyNode{In: n, First: i == 0}
		}
		n = JoinAggNode{In: n, Table: q.Joins[len(q.Joins)-1], Sum: needValue}
	case q.Joined():
		joins := q.Joins
		var perm []int
		if pc.CostPlan && len(q.Joins) >= 2 {
			var chosen []int
			if pc.NoReorder {
				chosen = make([]int, len(q.Joins))
				for i := range chosen {
					chosen[i] = i
				}
			} else {
				chosen = greedyJoins(q.From, q.Joins, pc.card(), newCostModel(pc.Opts))
			}
			joins = make([]string, len(chosen))
			for pos, idx := range chosen {
				joins[pos] = q.Joins[idx]
			}
			// Restore.Perm maps written table slots (From = slot 0,
			// q.Joins[i] = slot i+1) onto execution slots.
			perm = make([]int, len(q.Joins)+1)
			for pos, idx := range chosen {
				perm[idx+1] = pos + 1
			}
		}
		for i, t := range joins {
			if i > 0 {
				n = RekeyNode{In: n, First: i == 1}
			}
			n = JoinNode{In: n, Table: t}
		}
		if perm != nil {
			n = RestoreNode{In: n, Perm: perm}
		}
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

// scanNeedsData reports whether any downstream stage reads the scanned
// payload bytes. Joins materialize payloads, DISTINCT dedups whole
// rows, and value aggregates/plain payload columns read them directly;
// COUNT and key-only selections touch keys alone (filter predicates
// are always key-only).
func scanNeedsData(q *Query) bool {
	if q.Joined() || q.Distinct {
		return true
	}
	for _, it := range q.Select {
		switch {
		case it.Agg == AggSum || it.Agg == AggMin || it.Agg == AggMax:
			return true
		case it.Agg == AggNone && it.Col != ColKey:
			return true
		}
	}
	return false
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

// greedyJoins picks the execution order of a JOIN ... USING chain: at
// each step it joins the accumulated left side with the remaining
// table whose modeled join is cheapest. The decision reads only public
// cardinalities (and optional public observed join sizes), so the
// order — like the rest of the plan — is content-independent. Ties
// break deterministically on (comparators, store bytes, written
// position). Returns the chosen q.Joins indices in execution order.
func greedyJoins(from string, joins []string, card Card, cm *costModel) []int {
	cur, _ := card.Rows(from)
	left := []string{from}
	remaining := make([]int, len(joins))
	for i := range remaining {
		remaining[i] = i
	}
	chosen := make([]int, 0, len(joins))
	for len(remaining) > 0 {
		best := -1
		var bestComp uint64
		var bestBytes int64
		bestM := 0
		for _, idx := range remaining {
			nr, _ := card.Rows(joins[idx])
			m, fed := card.JoinRows(left, joins[idx])
			if !fed {
				m = estJoinRows(cur, nr)
			}
			comp, _, bytes := cm.join(cur, nr, m)
			if best == -1 || comp < bestComp ||
				(comp == bestComp && (bytes < bestBytes || (bytes == bestBytes && idx < best))) {
				best, bestComp, bestBytes, bestM = idx, comp, bytes, m
			}
		}
		chosen = append(chosen, best)
		for i, idx := range remaining {
			if idx == best {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
		cur = bestM
		left = append(left, joins[best])
	}
	return chosen
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
	case RestoreNode:
		op = exec.Restore{Perm: v.Perm}
	case JoinAggNode:
		op = exec.JoinAggregate{Table: v.Table, Sum: v.Sum}
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
