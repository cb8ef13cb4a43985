// Package ops provides the data-oblivious relational operators beyond
// the join: selection (filter), duplicate elimination, set union and
// semijoin. The paper observes (§1) that these "do not pose much of an
// algorithmic challenge in most cases since often one can directly apply
// sorting networks"; this package is that observation made concrete, so
// the repository forms a usable oblivious query-processing toolkit.
//
// Every operator takes the same *core.Config as the join pipeline:
// storage comes from cfg.Alloc (plain or encrypted), sorts run through
// the configured network at the configured parallelism, and the carry
// scans execute on the blocked scan engine — so an operator's recorded
// trace is identical at every parallelism degree and between plain and
// sealed storage.
//
// Every operator's access pattern depends only on its input length and
// its output length; the output length itself is public, exactly as for
// the join (§3.2, "Revealing Output Length").
package ops

import (
	"oblivjoin/internal/compaction"
	"oblivjoin/internal/core"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// Predicate decides, in constant time, whether a row is kept (1) or
// dropped (0). Implementations must be branch-free on row contents —
// use the primitives of internal/obliv. The predicate is evaluated
// exactly once per row, in input order, regardless of its results.
type Predicate func(table.Row) uint64

func load(cfg *core.Config, rows []table.Row) table.Store {
	a := cfg.Alloc(len(rows))
	for i, r := range rows {
		a.Set(i, table.Entry{J: r.J, D: r.D})
	}
	return a
}

func collect(a table.Store, k uint64) []table.Row {
	out := make([]table.Row, k)
	for i := range out {
		e := a.Get(i)
		out[i] = table.Row{J: e.J, D: e.D}
	}
	return out
}

// Filter returns the rows satisfying pred, in input order. The server
// observes the input size, a fixed scan-and-compact pattern, and the
// output size k — not which rows passed.
func Filter(cfg *core.Config, rows []table.Row, pred Predicate) []table.Row {
	a := load(cfg, rows)
	return collect(a, FilterStore(cfg, a, pred))
}

// FilterStore is Filter over an already-loaded store: it nulls the
// failing entries, compacts, and returns the (public) number of
// survivors occupying the store's prefix. The streaming executor loads
// the store batch-wise and drains the prefix batch-wise, so the
// whole-relation slices of the materialized path never exist.
func FilterStore(cfg *core.Config, a table.Store, pred Predicate) uint64 {
	var k uint64
	cfg.ScanStore(a, false, func(_ int, e *table.Entry) {
		keep := pred(table.Row{J: e.J, D: e.D})
		k += keep
		e.Null = obliv.Not(keep)
	})
	compaction.Compact(a, nil)
	return k
}

// Distinct returns the unique rows of the input, sorted by (key, data).
// Duplicates are detected by one branch-free scan over the sorted rows
// and removed by oblivious compaction.
func Distinct(cfg *core.Config, rows []table.Row) []table.Row {
	a := load(cfg, rows)
	return collect(a, DistinctStore(cfg, a))
}

// DistinctStore is Distinct over an already-loaded store; see
// FilterStore for the prefix contract.
func DistinctStore(cfg *core.Config, a table.Store) uint64 {
	cfg.SortStore(a, table.LessJD, cfg.RelationalSortStats())
	var prev table.Entry
	started := uint64(0)
	var k uint64
	cfg.ScanStore(a, false, func(_ int, e *table.Entry) {
		dup := obliv.And(started, obliv.And(
			obliv.Eq(e.J, prev.J), table.EqData(e.D, prev.D)))
		e.Null = dup
		k += obliv.Not(dup)
		prev = *e
		started = 1
	})
	compaction.Compact(a, nil)
	return k
}

// Union returns the set union of two tables (duplicates across and
// within inputs removed), sorted by (key, data).
func Union(cfg *core.Config, a, b []table.Row) []table.Row {
	both := make([]table.Row, 0, len(a)+len(b))
	both = append(both, a...)
	both = append(both, b...)
	return Distinct(cfg, both)
}

// Semijoin returns the rows of left whose key appears in right (left ⋉
// right), sorted by (key, data). It is the one-sided membership variant
// of the join: one sort of the tagged concatenation, one scan, one
// compaction — O(n log² n) with no expansion.
func Semijoin(cfg *core.Config, left, right []table.Row) []table.Row {
	n := len(left) + len(right)
	a := cfg.Alloc(n)
	// Right rows get TID 1 so they sort before left rows (TID 2) within
	// a key group; a forward scan then knows, at every left row, whether
	// the group contains a right row.
	for i, r := range right {
		a.Set(i, table.Entry{J: r.J, D: r.D, TID: 1})
	}
	for i, r := range left {
		a.Set(len(right)+i, table.Entry{J: r.J, D: r.D, TID: 2})
	}
	return collect(a, SemijoinStore(cfg, a))
}

// SemijoinStore is the sort-scan-compact body of Semijoin over a store
// already loaded with the tagged concatenation (right rows TID 1 first,
// then left rows TID 2); see FilterStore for the prefix contract.
func SemijoinStore(cfg *core.Config, a table.Store) uint64 {
	// Sort by ⟨j, tid, d⟩: right rows first within each group (so one
	// forward scan knows membership), left rows in data order (so the
	// output order is deterministic).
	lessJTIDD := func(x, y table.Entry) uint64 {
		ltJT := table.LessJTID(x, y)
		eqJT := obliv.And(obliv.Eq(x.J, y.J), obliv.Eq(x.TID, y.TID))
		return obliv.Or(ltJT, obliv.And(eqJT, table.LessData(x.D, y.D)))
	}
	cfg.SortStore(a, lessJTIDD, cfg.RelationalSortStats())

	var prevJ, hasRight, k uint64
	started := uint64(0)
	cfg.ScanStore(a, false, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, prevJ))
		hasRight = obliv.And(same, hasRight)
		isRight := obliv.Eq(e.TID, 1)
		hasRight = obliv.Or(hasRight, isRight)
		keep := obliv.And(obliv.Not(isRight), hasRight)
		e.Null = obliv.Not(keep)
		k += keep
		prevJ = e.J
		started = 1
	})
	compaction.Compact(a, nil)
	return k
}

// SortByKeyStore sorts an already-loaded store by (key, data) and
// returns its (public) length; the whole store is live output.
func SortByKeyStore(cfg *core.Config, a table.Store) uint64 {
	cfg.SortStore(a, table.LessJD, cfg.RelationalSortStats())
	return uint64(a.Len())
}
