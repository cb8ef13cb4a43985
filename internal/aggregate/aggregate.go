// Package aggregate implements oblivious grouping aggregation, the
// extension the paper's §7 singles out: "Grouping aggregations over
// joins could be computed using fewer sorting steps than a full join
// would require".
//
// Two operators are provided:
//
//   - GroupBy: oblivious GROUP BY over (key, value) items — sort by key,
//     two branch-free linear scans in the style of Fill-Dimensions, and
//     an oblivious compaction of the per-group boundary entries. The
//     access pattern depends only on the input length and the number of
//     groups (the operator's public output size).
//
//   - JoinGroupStats: per-group statistics of a join T1 ⋈ T2 — the
//     group dimensions α1, α2 and the pair count α1·α2 — computed from
//     Augment-Tables alone, in O(n log² n), without materializing the
//     m-row join. This is exactly the §7 observation: COUNT-style
//     aggregations over a join need the dimensions, not the expansion.
//
// Like internal/ops, every operator takes the pipeline's *core.Config:
// entry storage comes from cfg.Alloc (plain or sealed), sorts run
// through the configured network, and the carry scans execute on the
// blocked scan engine, so recorded traces are canonical.
package aggregate

import (
	"encoding/binary"

	"oblivjoin/internal/compaction"
	"oblivjoin/internal/core"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// Item is one input record of GroupBy.
type Item struct {
	K uint64 // group key
	V uint64 // value
}

// Group is one output record of GroupBy: the key and its aggregates.
type Group struct {
	K     uint64
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
}

// GroupBy works on plain table entries so it can live in any entry
// store (plain or encrypted) handed out by cfg.Alloc. An item and its
// running aggregates are packed into the entry's working attributes:
//
//	J ← key   A1 ← value   TID ← count   A2 ← sum   II ← min
//	D[0:8] ← max   F ← compaction scratch   Null ← boundary flag
//
// The packing is pure relabeling — every field is moved by the same
// constant-time entry operations (CondSwapEntry touches all of them) —
// so it changes nothing about obliviousness.
func itemEntry(it Item) table.Entry {
	return table.Entry{J: it.K, A1: it.V}
}

func entryGroup(e table.Entry) Group {
	return Group{K: e.J, Count: e.TID, Sum: e.A2, Min: e.II,
		Max: binary.LittleEndian.Uint64(e.D[:8])}
}

func lessK(x, y table.Entry) uint64 { return obliv.Less(x.J, y.J) }

// GroupBy computes per-key COUNT, SUM, MIN and MAX over items,
// obliviously. The result is sorted by key. The number of groups —
// the output length — is public, like the join's m; everything else
// about the grouping structure is hidden.
func GroupBy(cfg *core.Config, items []Item) []Group {
	n := len(items)
	if n == 0 {
		return nil
	}
	a := cfg.Alloc(n)
	for i, it := range items {
		a.Set(i, itemEntry(it))
	}

	cfg.SortStore(a, lessK, cfg.RelationalSortStats())

	// Forward scan: running aggregates, reset at group boundaries. After
	// this pass the LAST entry of each group holds the group's totals.
	var prevK, cnt, sum, mn, mx uint64
	started := uint64(0)
	cfg.ScanStore(a, false, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, prevK))
		v := e.A1
		cnt = obliv.Select(same, cnt, 0) + 1
		sum = obliv.Select(same, sum, 0) + v
		mn = obliv.Select(obliv.And(same, obliv.Less(mn, v)), mn, v)
		mx = obliv.Select(obliv.And(same, obliv.Greater(mx, v)), mx, v)
		e.TID, e.A2, e.II = cnt, sum, mn
		binary.LittleEndian.PutUint64(e.D[:8], mx)
		prevK = e.J
		started = 1
	})

	// Backward scan: keep only each group's boundary entry.
	prevK, started = 0, 0
	var groups uint64
	cfg.ScanStore(a, true, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, prevK))
		e.Null = same // non-boundary entries vanish
		groups += obliv.Not(same)
		prevK = e.J
		started = 1
	})

	// Oblivious compaction brings the boundary entries (in key order) to
	// the front; the group count is the public output size.
	compaction.Compact(a, nil)

	out := make([]Group, groups)
	for i := range out {
		out[i] = entryGroup(a.Get(i))
	}
	return out
}

// JoinStat is one output record of JoinGroupStats: a join value present
// in both tables and its group dimensions.
type JoinStat struct {
	J     uint64
	A1    uint64 // matching rows in T1
	A2    uint64 // matching rows in T2
	Pairs uint64 // α1·α2 — this group's contribution to the join output
}

// JoinGroupStats computes per-group join statistics without expanding
// the join: Augment-Tables provides (α1, α2) on every entry; one
// backward scan marks each group's boundary within the T1 region; an
// oblivious compaction collects the boundaries of groups with α2 > 0.
// Total cost O(n log² n) — independent of the (possibly quadratic) join
// output size m, which a full join would have to pay.
//
// The number of joinable groups is the output length and therefore
// public; the total Σ α1·α2 equals the m that Join would reveal anyway.
func JoinGroupStats(cfg *core.Config, rows1, rows2 []table.Row) []JoinStat {
	_, t1, _, _ := core.AugmentTables(cfg, rows1, rows2)
	n1 := t1.Len()
	if n1 == 0 {
		return nil
	}

	// Mark boundaries (last entry of each j-run in the T1 region, which
	// Augment-Tables leaves sorted by (j, d)) of groups with α2 > 0.
	var prevJ uint64
	started := uint64(0)
	var groups uint64
	cfg.ScanStore(t1, true, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, prevJ))
		joinable := obliv.Greater(e.A2, 0)
		keep := obliv.And(obliv.Not(same), joinable)
		e.Null = obliv.Not(keep)
		groups += keep
		prevJ = e.J
		started = 1
	})

	compaction.Compact(t1, nil)

	out := make([]JoinStat, groups)
	for i := range out {
		e := t1.Get(i)
		out[i] = JoinStat{J: e.J, A1: e.A1, A2: e.A2, Pairs: e.A1 * e.A2}
	}
	return out
}

// JoinSum extends JoinStat with per-side value sums, enabling SUM
// aggregates over the join without materializing it: in the join
// output, every T1 row of a group appears α2 times and every T2 row α1
// times, so
//
//	SUM(left value over join)  = Σ_groups α2 · SumLeft
//	SUM(right value over join) = Σ_groups α1 · SumRight.
type JoinSum struct {
	JoinStat
	SumLeft  uint64 // Σ values of the group's T1 rows
	SumRight uint64 // Σ values of the group's T2 rows
}

// LeftTotal is this group's contribution to SUM(left value) over the
// join.
func (s JoinSum) LeftTotal() uint64 { return s.A2 * s.SumLeft }

// RightTotal is this group's contribution to SUM(right value) over the
// join.
func (s JoinSum) RightTotal() uint64 { return s.A1 * s.SumRight }

// ValueFunc extracts the numeric value of a row for join aggregation.
// It must be branch-free if the values themselves are secret (the
// default — payload decoding below is constant-shape).
type ValueFunc func(r table.Row) uint64

// JoinGroupSums computes JoinGroupStats plus per-side value sums, still
// in O(n log² n): the sums ride along the same two Fill-Dimensions-style
// scans, stored in the entries' F and II working attributes.
//
// Implementation note: the value scans run over the combined table
// before augmentation splits it, using one forward pass to accumulate
// per-side running sums and one backward pass to propagate the group
// totals — the exact pattern of Algorithm 2, applied to values instead
// of counts.
func JoinGroupSums(cfg *core.Config, rows1, rows2 []table.Row, value ValueFunc) []JoinSum {
	// Precompute values per input row and smuggle them through the
	// pipeline by re-encoding each payload: the augmented tables return
	// rows in (j, d) order, so we must be able to recover each row's
	// value after sorting. Encode the value into the payload itself.
	v1 := make([]uint64, len(rows1))
	for i, r := range rows1 {
		v1[i] = value(r)
	}
	v2 := make([]uint64, len(rows2))
	for i, r := range rows2 {
		v2[i] = value(r)
	}
	enc := func(rows []table.Row, vals []uint64) []table.Row {
		out := make([]table.Row, len(rows))
		for i, r := range rows {
			out[i] = r
			// The low 8 bytes of the payload carry the value; the rest
			// keeps enough of the original payload for uniqueness.
			for b := 0; b < 8; b++ {
				out[i].D[table.DataLen-8+b] = byte(vals[i] >> (8 * b))
			}
		}
		return out
	}
	dec := func(e table.Entry) uint64 {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(e.D[table.DataLen-8+b]) << (8 * b)
		}
		return v
	}

	_, t1, t2, _ := core.AugmentTables(cfg, enc(rows1, v1), enc(rows2, v2))

	// Per-side group sums via forward+backward scans, accumulated into
	// the F working attribute of every entry.
	sideSums := func(t table.Store) {
		var prevJ, run uint64
		started := uint64(0)
		cfg.ScanStore(t, false, func(_ int, e *table.Entry) {
			same := obliv.And(started, obliv.Eq(e.J, prevJ))
			run = obliv.Select(same, run, 0) + dec(*e)
			e.F = run
			prevJ = e.J
			started = 1
		})
		var total uint64
		prevJ, started = 0, 0
		cfg.ScanStore(t, true, func(_ int, e *table.Entry) {
			same := obliv.And(started, obliv.Eq(e.J, prevJ))
			total = obliv.Select(same, total, e.F)
			e.F = total
			prevJ = e.J
			started = 1
		})
	}
	sideSums(t1)
	sideSums(t2)

	// Boundary extraction on the T1 side (for SumLeft) needs SumRight
	// too: fetch it by a joint scan over the combined store. We instead
	// extract per-side boundaries separately and merge by key — both
	// lists are sorted by j, and their lengths are the public group
	// counts of each side, so the merge below is plain public code over
	// already-revealed outputs.
	extract := func(t table.Store, needOtherSide bool) []JoinSum {
		var prevJ uint64
		started := uint64(0)
		var groups uint64
		cfg.ScanStore(t, true, func(_ int, e *table.Entry) {
			same := obliv.And(started, obliv.Eq(e.J, prevJ))
			joinable := obliv.Greater(obliv.Select(obliv.Bool(needOtherSide), e.A1, e.A2), 0)
			keep := obliv.And(obliv.Not(same), joinable)
			e.Null = obliv.Not(keep)
			groups += keep
			prevJ = e.J
			started = 1
		})
		compaction.Compact(t, nil)
		out := make([]JoinSum, groups)
		for i := range out {
			e := t.Get(i)
			out[i] = JoinSum{JoinStat: JoinStat{J: e.J, A1: e.A1, A2: e.A2, Pairs: e.A1 * e.A2}}
			// F was clobbered by compaction; recover the side sum from
			// the II attribute where sideSums left... F is gone — see
			// below: sums were re-stashed in II before compaction.
			out[i].SumLeft = e.II
		}
		return out
	}
	// Compaction clobbers F (its routing scratch), so move the sums to
	// II first.
	stash := func(t table.Store) {
		cfg.ScanStore(t, false, func(_ int, e *table.Entry) {
			e.II = e.F
		})
	}
	stash(t1)
	stash(t2)

	left := extract(t1, false) // keeps groups with α2 > 0, SumLeft in II
	right := extract(t2, true) // keeps groups with α1 > 0, SumRight in II

	// Merge (public post-processing of already-public outputs).
	byKey := make(map[uint64]uint64, len(right))
	for _, r := range right {
		byKey[r.J] = r.SumLeft // field carries this side's sum
	}
	for i := range left {
		left[i].SumRight = byKey[left[i].J]
	}
	return left
}
