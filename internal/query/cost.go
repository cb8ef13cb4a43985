package query

// This file is the planner's cost model. An oblivious engine has the
// rare luxury of an *exact*, content-independent cost model: every
// sorting network's compare–exchange count is a pure function of its
// input length, every routing loop's hop count is a pure function of
// the padded store size, and all of those lengths are public
// cardinalities. The model reproduces, operator by operator, the
// counts the instrumented executor reports in PlanStats — so modeled
// and observed comparators are equal whenever the model's output-size
// inputs are exact, and the difference between them is exactly the
// estimation error of the intermediate sizes (which the service layer
// feeds back via Card.JoinRows, see internal/service).
//
// Formula provenance (all mirrored from the executing code, and pinned
// by cost_test.go against instrumented runs):
//
//   join(n1, n2) → m        internal/core: Augment-Tables sorts n1+n2
//                           twice; each Oblivious-Expand sorts and
//                           routes a store of Lᵢ = max(nᵢ, m); the
//                           alignment sorts m.
//   semijoin(n, s)          internal/ops: one sort of n+s.
//   distinct/sort/group(n)  one sort of n.
//   join-agg(n, r)          internal/aggregate: Augment-Tables only —
//                           two sorts of n+r.
//   filter(n)               scans and compaction only: no comparators.
//   restore(m)              one canonical sort of m (internal/query/exec).
//
// Compaction route-ops are excluded: the executor runs its compactions
// uninstrumented (internal/ops passes nil stats), so the model matches
// what PlanStats actually reports.

import (
	"fmt"
	"math/bits"
	"strings"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/table"
)

// Card supplies the public cardinalities the planner and the cost
// model consume. Rows reports a base table's (public) row count.
// JoinRows optionally reports the output size of joining the
// accumulated left side (identified by its table list, in execution
// order) with one more table — the adaptive-feedback channel: observed
// join output sizes are public by design (§3.2 of the paper reveals
// m), so feeding them back never consults data contents.
type Card interface {
	Rows(table string) (n int, ok bool)
	JoinRows(left []string, right string) (m int, ok bool)
}

// StaticCard is a fixed table-size map with no join-size feedback.
type StaticCard map[string]int

// Rows implements Card.
func (c StaticCard) Rows(t string) (int, bool) { n, ok := c[t]; return n, ok }

// JoinRows implements Card.
func (StaticCard) JoinRows([]string, string) (int, bool) { return 0, false }

// tablesCard adapts the single-user engine's table map to Card.
type tablesCard map[string][]table.Row

func (c tablesCard) Rows(t string) (int, bool) {
	rows, ok := c[t]
	return len(rows), ok
}

func (tablesCard) JoinRows([]string, string) (int, bool) { return 0, false }

// StageCost is one plan stage's modeled cost.
type StageCost struct {
	// Op is the stage label (matches EXPLAIN and PlanStats).
	Op string
	// Comparators is the modeled compare–exchange count of the stage's
	// sorting networks.
	Comparators uint64
	// RouteOps is the modeled compare–hop count of the stage's
	// distribute routing loops.
	RouteOps uint64
	// Rows is the stage's modeled output cardinality.
	Rows int
	// Bytes is the padded in-memory footprint of the stores the stage
	// allocates, in the run's store mode.
	Bytes int64
	// Estimated marks stages whose Rows (and the costs derived from
	// downstream sizes) rest on an estimate — a data-dependent-but-
	// public output size the model cannot know before execution
	// (filter/semijoin survivors, unfed join sizes).
	Estimated bool
}

// PlanCostReport is the modeled cost of a whole plan: per-stage rows
// plus totals. Comparators and RouteOps are exact (equal to the
// executed counts) whenever no stage is Estimated.
type PlanCostReport struct {
	Stages      []StageCost
	Comparators uint64
	RouteOps    uint64
	Bytes       int64
	// Rows is the modeled final output cardinality.
	Rows int
	// Estimated reports whether any stage rests on an estimated size.
	Estimated bool
}

// DistributeRouteOps returns the exact compare–hop count of the
// deterministic distribute's routing loop over a store of l entries —
// the same wave schedule core.routeDown executes, counted instead of
// run.
func DistributeRouteOps(l int) uint64 {
	if l <= 1 {
		return 0
	}
	var c uint64
	for j := 1 << (bits.Len(uint(l-1)) - 1); j >= 1; j >>= 1 {
		for hi := l - j - 1; hi >= 0; hi -= j {
			lo := hi - j + 1
			if lo < 0 {
				lo = 0
			}
			c += uint64(hi - lo + 1)
		}
	}
	return c
}

// costModel evaluates operator costs under one option set, memoizing
// the bitonic network's comparator counts.
type costModel struct {
	opts Options
	memo map[int]uint64
}

func newCostModel(opts Options) *costModel {
	return &costModel{opts: opts, memo: map[int]uint64{}}
}

// sortC is the exact comparator count of one sort of n elements.
func (cm *costModel) sortC(n int) uint64 {
	if c, ok := cm.memo[n]; ok {
		return c
	}
	c := bitonic.Comparators(n)
	cm.memo[n] = c
	return c
}

// footprint is the padded store footprint of n entries in the run's
// store mode, as table.Footprint charges it.
func (cm *costModel) footprint(n int) int64 {
	if cm.opts.Encrypted {
		return table.BlockFootprint(n, table.DefaultSealedBlock)
	}
	return table.PlainFootprint(n)
}

// join models one oblivious equi-join of (n1, n2) inputs with output
// size m: comparators, route ops and allocated store bytes.
func (cm *costModel) join(n1, n2, m int) (comp, route uint64, bytes int64) {
	l1, l2 := max(n1, m), max(n2, m)
	comp = 2*cm.sortC(n1+n2) + // Augment-Tables
		cm.sortC(l1) + cm.sortC(l2) + // the two expands' distributes
		cm.sortC(m) // alignment
	route = DistributeRouteOps(l1) + DistributeRouteOps(l2)
	bytes = cm.footprint(n1+n2) + cm.footprint(l1) + cm.footprint(l2)
	return comp, route, bytes
}

// estJoinRows is the default intermediate-size estimator when no
// feedback is available: min(n1, n2), the exact answer when the
// smaller side's keys each match at most one row of the larger (the
// foreign-key shape). Fan-out joins exceed it — which is precisely the
// divergence the adaptive replan hook detects and feeds back.
func estJoinRows(n1, n2 int) int { return min(n1, n2) }

// ComputePlanCost walks a linear plan and models every stage's
// comparator count, route ops, output cardinality and padded store
// footprint from public cardinalities alone. It never consults table
// contents, so calling it (like Explain) is itself oblivious.
func ComputePlanCost(plan PlanNode, card Card, opts Options) *PlanCostReport {
	var nodes []PlanNode
	for n := plan; n != nil; n = n.Input() {
		nodes = append(nodes, n)
	}
	// Leaf first.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}

	cm := newCostModel(opts)
	rep := &PlanCostReport{}
	cur := 0          // modeled cardinality flowing into the next stage
	est := false      // cur rests on an estimate
	var left []string // accumulated join-chain tables, execution order

	for _, n := range nodes {
		sc := StageCost{Op: n.Describe()}
		switch v := n.(type) {
		case ScanNode:
			nrows, ok := card.Rows(v.Table)
			cur, est = nrows, !ok
			left = []string{v.Table}
		case SemijoinNode:
			ns, _ := card.Rows(v.Table)
			sc.Comparators = cm.sortC(cur + ns)
			sc.Bytes = cm.footprint(cur + ns)
			est = true // survivors are data-dependent (public after the run)
		case FilterNode:
			sc.Bytes = cm.footprint(cur)
			est = true
		case JoinNode:
			nr, _ := card.Rows(v.Table)
			m, fed := card.JoinRows(left, v.Table)
			if !fed {
				m = estJoinRows(cur, nr)
				est = true
			}
			sc.Comparators, sc.RouteOps, sc.Bytes = cm.join(cur, nr, m)
			cur = m
			left = append(left, v.Table)
		case RekeyNode:
			// Plain per-row repackaging: no sorts, no stores.
		case RestoreNode:
			sc.Comparators = cm.sortC(cur) // the canonical (j,d1,d2) sort
		case JoinAggNode:
			nr, _ := card.Rows(v.Table)
			sc.Comparators = 2 * cm.sortC(cur+nr) // Augment-Tables only
			sc.Bytes = cm.footprint(cur + nr)
			cur = min(cur, nr) // joinable groups ≤ smaller side's keys
			est = true
		case GroupByNode:
			sc.Comparators = cm.sortC(cur)
			sc.Bytes = cm.footprint(cur)
			est = true // group count is data-dependent (public after)
		case DistinctNode:
			sc.Comparators = cm.sortC(cur)
			sc.Bytes = cm.footprint(cur)
			est = true
		case SortNode:
			if !v.Free {
				sc.Comparators = cm.sortC(cur)
				sc.Bytes = cm.footprint(cur)
			}
		case LimitNode:
			cur = min(cur, v.N)
		case ProjectNode:
			// Stringification only.
		}
		sc.Rows = cur
		sc.Estimated = est
		rep.Stages = append(rep.Stages, sc)
		rep.Comparators += sc.Comparators
		rep.RouteOps += sc.RouteOps
		rep.Bytes += sc.Bytes
	}
	rep.Rows = cur
	rep.Estimated = est
	return rep
}

// RenderPlanCost renders a modeled cost report as an aligned table —
// the cost half of EXPLAIN. Estimated row counts are prefixed with '~'.
func RenderPlanCost(rep *PlanCostReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s %12s %10s %12s\n", "stage", "comparators", "route-ops", "rows", "store-bytes")
	for _, s := range rep.Stages {
		rows := fmt.Sprintf("%d", s.Rows)
		if s.Estimated {
			rows = "~" + rows
		}
		fmt.Fprintf(&b, "%-44s %14d %12d %10s %12d\n", s.Op, s.Comparators, s.RouteOps, rows, s.Bytes)
	}
	exact := "exact"
	if rep.Estimated {
		exact = "estimated"
	}
	fmt.Fprintf(&b, "%-44s %14d %12d %10d %12d (%s)", "total (modeled)",
		rep.Comparators, rep.RouteOps, rep.Rows, rep.Bytes, exact)
	return b.String()
}
