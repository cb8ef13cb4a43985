// Package baseline implements the comparison join algorithms of Table 1
// of the paper, so the repository's benchmarks can regenerate the
// comparison empirically:
//
//   - SortMergeJoin — the standard non-oblivious O(m′ log m′) sort-merge
//     join, the performance yardstick (Figure 8's bottom curve);
//   - NestedLoopJoin — the trivial oblivious join: materialize all n1·n2
//     candidate pairs, then obliviously filter, O(n1·n2 log²(n1·n2));
//   - OpaqueJoin — the oblivious sort-merge of Opaque/ObliDB, restricted
//     to primary–foreign-key joins, O(n log² n);
//   - ORAMJoin — the generic approach: the standard sort-merge join run
//     over Path ORAM-backed arrays.
//
// All variants allocate from a memory.Space so physical access counts
// and traces are comparable across algorithms.
package baseline

import (
	"errors"
	"sort"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// ErrNotPrimaryKey is returned by OpaqueJoin when the left table has
// duplicate join values and therefore is not a primary-key table.
var ErrNotPrimaryKey = errors.New("baseline: left table is not a primary-key table")

// SortMergeJoin is the standard insecure sort-merge join. Its control
// flow and memory accesses are input-dependent — it exists as the
// performance baseline, not as a secure algorithm.
func SortMergeJoin(sp *memory.Space, rows1, rows2 []table.Row) []table.Pair {
	a1 := loadRows(sp, rows1)
	a2 := loadRows(sp, rows2)
	sortRows(a1)
	sortRows(a2)
	return mergeScan(rowArray{a1}, rowArray{a2}, nil)
}

// loadRows copies rows into a traced array.
func loadRows(sp *memory.Space, rows []table.Row) *memory.Array[table.Row] {
	a := memory.Alloc[table.Row](sp, len(rows), 8+table.DataLen)
	for i, r := range rows {
		a.Set(i, r)
	}
	return a
}

// rowSorter adapts a traced array to sort.Interface so even the insecure
// baseline's comparisons and swaps are visible to the access counters.
type rowSorter struct{ a *memory.Array[table.Row] }

func (s rowSorter) Len() int { return s.a.Len() }
func (s rowSorter) Less(i, j int) bool {
	x, y := s.a.Get(i), s.a.Get(j)
	if x.J != y.J {
		return x.J < y.J
	}
	return string(x.D[:]) < string(y.D[:])
}
func (s rowSorter) Swap(i, j int) {
	x, y := s.a.Get(i), s.a.Get(j)
	s.a.Set(i, y)
	s.a.Set(j, x)
}

func sortRows(a *memory.Array[table.Row]) { sort.Sort(rowSorter{a}) }

// rowReader is the minimal random-access interface mergeScan needs, so
// the same scan drives both plain arrays and ORAM-backed tables.
type rowReader interface {
	Len() int
	At(i int) table.Row
}

type rowArray struct{ a *memory.Array[table.Row] }

func (r rowArray) Len() int           { return r.a.Len() }
func (r rowArray) At(i int) table.Row { return r.a.Get(i) }

// mergeScan runs the textbook duplicate-aware merge phase over two
// sorted tables. If emit is nil the pairs are collected and returned;
// otherwise emit receives each pair and the return value is nil.
func mergeScan(t1, t2 rowReader, emit func(table.Pair)) []table.Pair {
	var out []table.Pair
	if emit == nil {
		emit = func(p table.Pair) { out = append(out, p) }
	}
	n1, n2 := t1.Len(), t2.Len()
	i, j := 0, 0
	for i < n1 && j < n2 {
		r1, r2 := t1.At(i), t2.At(j)
		switch {
		case r1.J < r2.J:
			i++
		case r1.J > r2.J:
			j++
		default:
			jv := r1.J
			jStart := j
			for i < n1 {
				ri := t1.At(i)
				if ri.J != jv {
					break
				}
				for j = jStart; j < n2; j++ {
					rj := t2.At(j)
					if rj.J != jv {
						break
					}
					emit(table.Pair{D1: ri.D, D2: rj.D})
				}
				i++
			}
		}
	}
	return out
}

// pairEntry is a candidate output row used by the oblivious baselines:
// the pair plus a null flag, sortable by the bitonic network.
type pairEntry struct {
	P    table.Pair
	Null uint64
}

func lessPairNull(x, y pairEntry) uint64 { return obliv.Less(x.Null, y.Null) }

func condSwapPair(c uint64, x, y *pairEntry) {
	table.CondSwapData(c, &x.P.D1, &y.P.D1)
	table.CondSwapData(c, &x.P.D2, &y.P.D2)
	obliv.CondSwap(c, &x.Null, &y.Null)
}

// NestedLoopJoin is the trivial oblivious join: every candidate pair is
// materialized with a branch-free match flag, the n1·n2 candidates are
// obliviously sorted to move real pairs to the front, and the first m
// are returned. Quadratic work and quadratic memory — Table 1's
// Agrawal-et-al row, made secure the obvious way.
func NestedLoopJoin(sp *memory.Space, rows1, rows2 []table.Row) []table.Pair {
	n1, n2 := len(rows1), len(rows2)
	a1 := loadRows(sp, rows1)
	a2 := loadRows(sp, rows2)
	cand := memory.Alloc[pairEntry](sp, n1*n2, 2*table.DataLen+8)
	var m uint64
	for i := 0; i < n1; i++ {
		r1 := a1.Get(i)
		for j := 0; j < n2; j++ {
			r2 := a2.Get(j)
			match := obliv.Eq(r1.J, r2.J)
			m += match
			cand.Set(i*n2+j, pairEntry{
				P:    table.Pair{D1: r1.D, D2: r2.D},
				Null: obliv.Not(match),
			})
		}
	}
	bitonic.Sort[pairEntry](cand, lessPairNull, condSwapPair, nil)
	out := make([]table.Pair, m)
	for i := range out {
		out[i] = cand.Get(i).P
	}
	return out
}

// OpaqueJoin implements the oblivious sort-merge join of Opaque (Zheng
// et al., NSDI 2017) as adapted in ObliDB: both tables are concatenated
// and bitonically sorted by ⟨j, tid⟩ so each primary row immediately
// precedes its foreign rows; one branch-free scan joins every foreign
// row with the last-seen primary row; a final oblivious sort filters the
// primary rows and unmatched foreigners out. It requires rows1 to be a
// primary-key table (unique join values) and returns ErrNotPrimaryKey
// otherwise — the restriction Table 1 notes for this family of systems.
func OpaqueJoin(sp *memory.Space, rows1, rows2 []table.Row) ([]table.Pair, error) {
	n1, n2 := len(rows1), len(rows2)
	n := n1 + n2
	tc := memory.Alloc[table.Entry](sp, n, table.EncodedSize)
	for i, r := range rows1 {
		tc.Set(i, table.Entry{J: r.J, D: r.D, TID: 1})
	}
	for i, r := range rows2 {
		tc.Set(n1+i, table.Entry{J: r.J, D: r.D, TID: 2})
	}
	bitonic.Sort[table.Entry](tc, table.LessJTID, table.CondSwapEntry, nil)

	// Scan: remember the last primary row; every row emits a candidate
	// pair (null unless it is a foreign row matching that primary).
	// Duplicate primaries are detected branch-free in the same pass.
	cand := memory.Alloc[pairEntry](sp, n, 2*table.DataLen+8)
	var lastJ, havePrim, dupPrim, m uint64
	var lastD table.Data
	for i := 0; i < n; i++ {
		e := tc.Get(i)
		isPrim := obliv.Eq(e.TID, 1)
		sameJ := obliv.And(havePrim, obliv.Eq(e.J, lastJ))
		dupPrim = obliv.Or(dupPrim, obliv.And(isPrim, sameJ))

		matched := obliv.And(obliv.Not(isPrim), sameJ)
		m += matched
		var p pairEntry
		p.P.D2 = e.D
		table.CondCopyData(matched, &p.P.D1, lastD)
		p.Null = obliv.Not(matched)
		cand.Set(i, p)

		// Update the remembered primary.
		take := isPrim
		lastJ = obliv.Select(take, e.J, lastJ)
		table.CondCopyData(take, &lastD, e.D)
		havePrim = obliv.Or(havePrim, take)
	}
	if dupPrim == 1 {
		return nil, ErrNotPrimaryKey
	}
	bitonic.Sort[pairEntry](cand, lessPairNull, condSwapPair, nil)
	out := make([]table.Pair, m)
	for i := range out {
		out[i] = cand.Get(i).P
	}
	return out, nil
}
