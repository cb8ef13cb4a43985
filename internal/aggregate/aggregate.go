// Package aggregate implements oblivious grouping aggregation, the
// extension the paper's §7 singles out: "Grouping aggregations over
// joins could be computed using fewer sorting steps than a full join
// would require".
//
// Three operators are provided. Each one runs branch-free carry scans in
// the style of Fill-Dimensions and ends the same way (markGroupEnds): a
// backward scan marks the last entry of every group the operator keeps,
// an oblivious compaction brings those entries to the front in key
// order, and the prefix — the operator's public output size — is read
// in one range.
//
//   - GroupBy: oblivious GROUP BY over a filled store — sort by key, one
//     forward scan of running aggregates, then the group ends. The access
//     pattern depends only on the input length and the number of groups.
//
//   - JoinGroupStats: per-group statistics of a join T1 ⋈ T2 — the
//     group dimensions α1, α2 and the pair count α1·α2 — computed from
//     Augment-Tables alone, in O(n log² n), without materializing the
//     m-row join. This is exactly the §7 observation: COUNT-style
//     aggregations over a join need the dimensions, not the expansion.
//
//   - JoinGroupSums: JoinGroupStats plus each side's per-group value
//     sum, from one forward scan per augmented side.
//
// Sums are exact: they accumulate in 128 bits (Uint128) and never wrap.
//
// Every operator takes the pipeline's *core.Config: entry storage comes
// from cfg.Alloc (plain or sealed), sorts run through the configured
// network, and the carry scans execute on the blocked scan engine, so
// recorded traces are canonical. Each releases its work store into the
// run's gauge once it has read its output.
package aggregate

import (
	"encoding/binary"
	"math/bits"

	"oblivjoin/internal/compaction"
	"oblivjoin/internal/core"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// Uint128 is an exact sum, Hi·2⁶⁴ + Lo. A sum of n values below 2⁶⁴ is
// below n·2⁶⁴, and a join sum times a group dimension below n²·2⁶⁴, so
// 128 bits never overflow for tables of fewer than 2³² rows.
type Uint128 struct{ Hi, Lo uint64 }

// add returns u + v, branch-free.
func (u Uint128) add(v uint64) Uint128 {
	lo, carry := bits.Add64(u.Lo, v, 0)
	return Uint128{Hi: u.Hi + carry, Lo: lo}
}

// mul returns u·a, branch-free.
func (u Uint128) mul(a uint64) Uint128 {
	hi, lo := bits.Mul64(u.Lo, a)
	return Uint128{Hi: hi + u.Hi*a, Lo: lo}
}

// within returns u inside a group (same = 1) and zero at a group's
// first entry (same = 0), branch-free.
func (u Uint128) within(same uint64) Uint128 {
	return Uint128{Hi: obliv.Select(same, u.Hi, 0), Lo: obliv.Select(same, u.Lo, 0)}
}

// ValueFunc reads the numeric value of a payload for SUM, MIN and MAX.
type ValueFunc func(d table.Data) uint64

// Group is one output record of GroupBy: the key and its aggregates.
type Group struct {
	K     uint64
	Count uint64
	Sum   Uint128
	Min   uint64
	Max   uint64
}

func lessK(x, y table.Entry) uint64 { return obliv.Less(x.J, y.J) }

// markGroupEnds keeps the last entry of every run of equal J in st for
// which keep reports 1, compacts the kept entries to the front in order
// and returns them. The count is the caller's public output size. The
// entries' F and Null are clobbered.
func markGroupEnds(cfg *core.Config, st table.Store, keep func(e *table.Entry) uint64) []table.Entry {
	var prevJ, started, k uint64
	cfg.ScanStore(st, true, func(_ int, e *table.Entry) {
		last := obliv.Not(obliv.And(started, obliv.Eq(e.J, prevJ)))
		kept := obliv.And(last, keep(e))
		e.Null = obliv.Not(kept)
		k += kept
		prevJ = e.J
		started = 1
	})
	compaction.Compact(st, nil)
	out := make([]table.Entry, k)
	st.GetRange(0, out)
	return out
}

// GroupBy computes per-key COUNT, SUM, MIN and MAX over the entries of
// a, obliviously: each entry's J is its group key and value reads its
// payload. The result is sorted by key. The number of groups — the
// output length — is public, like the join's m; everything else about
// the grouping structure is hidden. GroupBy owns a and releases it.
//
// The running aggregates are packed into the entries' working
// attributes, the payload once value has read it:
//
//	TID ← count   A2 ← sum, low word   D[8:16] ← sum, high word
//	II ← min      D[0:8] ← max
//
// The packing is pure relabeling — every field is moved by the same
// constant-time entry operations — so it changes nothing about
// obliviousness.
func GroupBy(cfg *core.Config, a table.Store, value ValueFunc) []Group {
	cfg.SortStore(a, lessK, cfg.RelationalSortStats())

	// Running aggregates, reset at group boundaries: the LAST entry of
	// each group ends up holding the group's totals.
	var prevK, cnt, mn, mx uint64
	var sum Uint128
	started := uint64(0)
	cfg.ScanStore(a, false, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, prevK))
		v := value(e.D)
		cnt = obliv.Select(same, cnt, 0) + 1
		sum = sum.within(same).add(v)
		mn = obliv.Select(obliv.And(same, obliv.Less(mn, v)), mn, v)
		mx = obliv.Select(obliv.And(same, obliv.Greater(mx, v)), mx, v)
		e.TID, e.A2, e.II = cnt, sum.Lo, mn
		binary.LittleEndian.PutUint64(e.D[:8], mx)
		binary.LittleEndian.PutUint64(e.D[8:], sum.Hi)
		prevK = e.J
		started = 1
	})

	ends := markGroupEnds(cfg, a, func(*table.Entry) uint64 { return 1 })
	cfg.ReleaseStore(a)
	out := make([]Group, len(ends))
	for i, e := range ends {
		out[i] = Group{K: e.J, Count: e.TID, Min: e.II,
			Sum: Uint128{Hi: binary.LittleEndian.Uint64(e.D[8:]), Lo: e.A2},
			Max: binary.LittleEndian.Uint64(e.D[:8])}
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

func joinStat(e table.Entry) JoinStat {
	return JoinStat{J: e.J, A1: e.A1, A2: e.A2, Pairs: e.A1 * e.A2}
}

// inT2 keeps a group whose key T2 also holds (α2 > 0), inT1 one whose
// key T1 holds.
func inT2(e *table.Entry) uint64 { return obliv.Greater(e.A2, 0) }
func inT1(e *table.Entry) uint64 { return obliv.Greater(e.A1, 0) }

// JoinGroupStats computes per-group join statistics without expanding
// the join: Augment-Tables provides (α1, α2) on every entry, and the
// group ends of the T1 region (sorted by (j, d)) with α2 > 0 are the
// output. Both tables arrive batch-wise, as for the join. Total cost
// O(n log² n) — independent of the (possibly quadratic) join output
// size m, which a full join would have to pay.
//
// The number of joinable groups is the output length and therefore
// public; the total Σ α1·α2 equals the m that Join would reveal anyway.
func JoinGroupStats(cfg *core.Config, feed1, feed2 core.RowFeed) ([]JoinStat, error) {
	tc, t1, _, _, err := core.AugmentTablesFeed2(cfg, feed1, feed2)
	if err != nil {
		return nil, err
	}
	ends := markGroupEnds(cfg, t1, inT2)
	cfg.ReleaseStore(tc)
	out := make([]JoinStat, len(ends))
	for i, e := range ends {
		out[i] = joinStat(e)
	}
	return out, nil
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
	SumLeft  Uint128 // Σ values of the group's T1 rows
	SumRight Uint128 // Σ values of the group's T2 rows
}

// LeftTotal is this group's contribution to SUM(left value) over the
// join.
func (s JoinSum) LeftTotal() Uint128 { return s.SumLeft.mul(s.A2) }

// RightTotal is this group's contribution to SUM(right value) over the
// join.
func (s JoinSum) RightTotal() Uint128 { return s.SumRight.mul(s.A1) }

// sumGroups accumulates, in one forward scan over an augmented side
// (sorted by (j, d)), each group's running value sum — low word in II,
// high word in D[8:16] once value has read the payload — so the group's
// last entry holds the group's sum.
func sumGroups(cfg *core.Config, t table.Store, value ValueFunc) {
	var prevJ, started uint64
	var sum Uint128
	cfg.ScanStore(t, false, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, prevJ))
		sum = sum.within(same).add(value(e.D))
		e.II = sum.Lo
		binary.LittleEndian.PutUint64(e.D[8:], sum.Hi)
		prevJ = e.J
		started = 1
	})
}

func entrySum(e table.Entry) Uint128 {
	return Uint128{Hi: binary.LittleEndian.Uint64(e.D[8:]), Lo: e.II}
}

// JoinGroupSums computes JoinGroupStats plus per-side value sums, still
// in O(n log² n): one forward sum scan per augmented side, then each
// side's group ends with a key in the other side. Both sides keep
// exactly the keys present in both tables, in key order, so the two
// outputs zip entry by entry.
func JoinGroupSums(cfg *core.Config, feed1, feed2 core.RowFeed, value ValueFunc) ([]JoinSum, error) {
	tc, t1, t2, _, err := core.AugmentTablesFeed2(cfg, feed1, feed2)
	if err != nil {
		return nil, err
	}
	sumGroups(cfg, t1, value)
	sumGroups(cfg, t2, value)
	left := markGroupEnds(cfg, t1, inT2)
	right := markGroupEnds(cfg, t2, inT1)
	cfg.ReleaseStore(tc)
	out := make([]JoinSum, len(left))
	for i, e := range left {
		out[i] = JoinSum{JoinStat: joinStat(e), SumLeft: entrySum(e), SumRight: entrySum(right[i])}
	}
	return out, nil
}
