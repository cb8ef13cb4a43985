// Package ops provides the data-oblivious relational operators beyond
// the join that the SQL executor runs: selection (filter), duplicate
// elimination, semijoin and ordering. The paper observes (§1) that
// these "do not pose much of an algorithmic challenge in most cases
// since often one can directly apply sorting networks"; this package is
// that observation made concrete.
//
// Every operator works in place on a store the executor has loaded and
// returns the public length of the live prefix. Each takes the same
// *core.Config as the join pipeline: storage comes from cfg.Alloc
// (plain or encrypted), sorts run through the configured network, and
// the carry scans execute on the blocked scan engine — so an operator's
// recorded trace is identical between plain and sealed storage.
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

// FilterStore keeps the entries satisfying pred, in input order: it
// nulls the failing entries, compacts, and returns the (public) number
// of survivors occupying the store's prefix. The server observes the
// input size, a fixed scan-and-compact pattern, and the output size k —
// not which rows passed. The streaming executor loads the store
// batch-wise and drains the prefix batch-wise, so no whole-relation
// slice exists.
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

// DistinctStore keeps the unique entries, sorted by (key, data).
// Duplicates are detected by one branch-free scan over the sorted
// entries and removed by oblivious compaction; see FilterStore for the
// prefix contract.
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

// SemijoinStore keeps the left rows whose key appears among the right
// rows (left ⋉ right), sorted by (key, data). The store holds the
// tagged concatenation: right rows with TID 1 first, then left rows
// with TID 2, so that right rows sort first within a key group and one
// forward scan knows, at every left row, whether the group has a right
// row. It is the one-sided membership variant of the join — one sort,
// one scan, one compaction, O(n log² n) with no expansion; see
// FilterStore for the prefix contract.
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
