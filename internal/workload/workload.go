// Package workload generates the input families used in the paper's
// evaluation (§6): n 1×1 groups, power-law group sizes,
// primary–foreign-key tables, and equal-output-size classes for
// the access-log experiments. All generators are deterministic given
// their seed, so experiments are reproducible run to run.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"oblivjoin/internal/table"
)

func mkRow(tid int, j uint64, i int) table.Row {
	var d table.Data
	// Stamp a compact unique payload: table id, join value, ordinal.
	s := fmt.Sprintf("%d|%x|%x", tid, j, i)
	copy(d[:], s)
	return table.Row{J: j, D: d}
}

// OneToOne produces n/2 groups of size 1×1: every key appears exactly
// once in each table, so m = n/2 (the paper's "n 1×1 groups" class and
// the m ≈ n1 = n2 regime of Figure 8).
func OneToOne(n int) (t1, t2 []table.Row) {
	k := n / 2
	t1 = make([]table.Row, k)
	t2 = make([]table.Row, n-k) // odd n: one extra unmatched row in t2
	for i := 0; i < k; i++ {
		t1[i] = mkRow(1, uint64(i), 0)
	}
	for i := 0; i < n-k; i++ {
		t2[i] = mkRow(2, uint64(i), 1)
	}
	return t1, t2
}

// PowerLaw draws group sizes from a discrete power-law distribution with
// exponent alpha (≈2 gives the classic heavy tail) until the combined
// input reaches n rows, splitting each group randomly between the two
// tables.
func PowerLaw(n int, alpha float64, seed int64) (t1, t2 []table.Row) {
	rng := rand.New(rand.NewSource(seed))
	j := uint64(0)
	remaining := n
	for remaining > 0 {
		// Inverse-transform sample: size = ⌊u^(-1/(alpha-1))⌋ ≥ 1.
		u := rng.Float64()
		if u == 0 {
			u = 1e-12
		}
		size := int(math.Pow(u, -1/(alpha-1)))
		if size < 1 {
			size = 1
		}
		if size > remaining {
			size = remaining
		}
		k1 := rng.Intn(size + 1)
		for i := 0; i < k1; i++ {
			t1 = append(t1, mkRow(1, j, i))
		}
		for i := 0; i < size-k1; i++ {
			t2 = append(t2, mkRow(2, j, i))
		}
		remaining -= size
		j++
	}
	return t1, t2
}

// PKFK produces a primary-key table of nPK distinct keys and a foreign-
// key table of nFK rows referencing them uniformly at random. This is
// the only input class the Opaque baseline accepts, so it drives the
// Table 1 comparison against that system.
func PKFK(nPK, nFK int, seed int64) (pk, fk []table.Row) {
	rng := rand.New(rand.NewSource(seed))
	pk = make([]table.Row, nPK)
	for i := range pk {
		pk[i] = mkRow(1, uint64(i), 0)
	}
	fk = make([]table.Row, nFK)
	for i := range fk {
		fk[i] = mkRow(2, uint64(rng.Intn(nPK)), i)
	}
	return pk, fk
}

// MatchingPairs is the Figure 8 workload: m ≈ n1 = n2 = n/2, realized
// as n/2 one-to-one groups.
func MatchingPairs(n int) (t1, t2 []table.Row) { return OneToOne(n) }

// Class is a family of inputs with identical public parameters
// (n1, n2, m) but different secret structure — the unit of the §6.1
// obliviousness experiments.
type Class struct {
	Name     string
	N1, N2   int
	M        int
	Variants []func() (t1, t2 []table.Row)
}

// EqualOutputClasses returns hand-constructed classes at small sizes
// plus generated classes at the given larger sizes (each n producing a
// class of power-law variants filtered to a common output size).
func EqualOutputClasses() []Class {
	mk := func(pairs [][2]uint64, tid int) []table.Row {
		rows := make([]table.Row, len(pairs))
		for i, p := range pairs {
			rows[i] = mkRow(tid, p[0], int(p[1]))
		}
		return rows
	}
	return []Class{
		{
			Name: "n1=4 n2=4 m=8",
			N1:   4, N2: 4, M: 8,
			Variants: []func() ([]table.Row, []table.Row){
				func() ([]table.Row, []table.Row) { // two 2×2 groups
					return mk([][2]uint64{{1, 0}, {1, 1}, {2, 0}, {2, 1}}, 1),
						mk([][2]uint64{{1, 2}, {1, 3}, {2, 2}, {2, 3}}, 2)
				},
				func() ([]table.Row, []table.Row) { // one 4×2 group
					return mk([][2]uint64{{9, 0}, {9, 1}, {9, 2}, {9, 3}}, 1),
						mk([][2]uint64{{9, 4}, {9, 5}, {7, 0}, {8, 0}}, 2)
				},
				func() ([]table.Row, []table.Row) { // one 2×4 group
					return mk([][2]uint64{{3, 0}, {3, 1}, {4, 0}, {5, 0}}, 1),
						mk([][2]uint64{{3, 2}, {3, 3}, {3, 4}, {3, 5}}, 2)
				},
				func() ([]table.Row, []table.Row) { // 3×2 + 1×2 groups
					return mk([][2]uint64{{1, 0}, {1, 1}, {1, 2}, {2, 0}}, 1),
						mk([][2]uint64{{1, 3}, {1, 4}, {2, 1}, {2, 2}}, 2)
				},
			},
		},
		{
			Name: "n1=3 n2=3 m=0",
			N1:   3, N2: 3, M: 0,
			Variants: []func() ([]table.Row, []table.Row){
				func() ([]table.Row, []table.Row) {
					return mk([][2]uint64{{1, 0}, {2, 0}, {3, 0}}, 1),
						mk([][2]uint64{{4, 0}, {5, 0}, {6, 0}}, 2)
				},
				func() ([]table.Row, []table.Row) { // same keys repeated, still disjoint
					return mk([][2]uint64{{7, 0}, {7, 1}, {7, 2}}, 1),
						mk([][2]uint64{{8, 0}, {8, 1}, {8, 2}}, 2)
				},
			},
		},
		{
			Name: "n1=6 n2=2 m=6",
			N1:   6, N2: 2, M: 6,
			Variants: []func() ([]table.Row, []table.Row){
				func() ([]table.Row, []table.Row) { // 3×2 group + strays
					return mk([][2]uint64{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {3, 0}, {4, 0}}, 1),
						mk([][2]uint64{{1, 3}, {1, 4}}, 2)
				},
				func() ([]table.Row, []table.Row) { // 6×1 group, one stray FK
					return mk([][2]uint64{{5, 0}, {5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 5}}, 1),
						mk([][2]uint64{{5, 6}, {9, 0}}, 2)
				},
			},
		},
	}
}
