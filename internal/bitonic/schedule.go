package bitonic

// This file materializes the sorting networks as iterative round
// schedules. A Segment is a contiguous run of comparators sharing one
// hop distance and direction; a round is a vector of segments whose
// comparator pairs are mutually disjoint, so every comparator of a
// round may execute in any order without changing the result. The
// schedule is a pure function of the input length n — the defining
// property of a sorting network — which is what makes the canonical
// round-ordered memory trace reproducible.

// Segment describes the comparator run (Lo+k, Lo+k+Hop) for
// k ∈ [0, Cnt), all ordering towards Dir (1 = ascending). The
// constructions in this file guarantee Hop ≥ Cnt, so the low sides
// [Lo, Lo+Cnt) and the high sides [Lo+Hop, Lo+Hop+Cnt) of a segment
// are disjoint index ranges — which is what lets the executor read and
// write each side as one batched range.
type Segment struct {
	Lo, Cnt, Hop int
	Dir          uint64
}

// span is a subrange of the input together with its sort direction.
type span struct {
	lo, n int
	dir   uint64
}

// bitonicRounds emits the bitonic sorting network for length n as a
// sequence of rounds, calling round once per round with the segments in
// canonical (ascending Lo) order. The slice is reused between calls.
//
// The recursion sort(lo,n,dir) = {sort(left), sort(right)} ; merge is
// scheduled breadth-first: the two half-sorts of every node at one
// depth of the recursion tree operate on disjoint ranges, so their
// merges run round-synchronously, deepest level first. Each merge
// itself emits one segment per round per active submerge. The
// comparator multiset is exactly that of the recursive network
// (Comparators(n) counts it), only the order is the round order.
func bitonicRounds(n int, round func([]Segment)) {
	if n <= 1 {
		return
	}
	// Build the sort-recursion tree level by level. levels[d] holds the
	// nodes at depth d in ascending lo order.
	levels := [][]span{{{lo: 0, n: n, dir: 1}}}
	for {
		last := levels[len(levels)-1]
		var next []span
		for _, t := range last {
			if t.n <= 1 {
				continue
			}
			m := t.n / 2
			next = append(next, span{t.lo, m, t.dir ^ 1}, span{t.lo + m, t.n - m, t.dir})
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
	}
	// A node's merge runs after its children's sorts complete, so the
	// merges execute from the deepest level up. All merges of one level
	// cover disjoint ranges and advance round-by-round together.
	var segs []Segment
	active := make([]span, 0, n)
	next := make([]span, 0, n)
	for d := len(levels) - 1; d >= 0; d-- {
		active = active[:0]
		for _, t := range levels[d] {
			if t.n > 1 {
				active = append(active, t)
			}
		}
		for len(active) > 0 {
			segs = segs[:0]
			next = next[:0]
			for _, t := range active {
				m := greatestPowerOfTwoLessThan(t.n)
				segs = append(segs, Segment{Lo: t.lo, Cnt: t.n - m, Hop: m, Dir: t.dir})
				if m > 1 {
					next = append(next, span{t.lo, m, t.dir})
				}
				if t.n-m > 1 {
					next = append(next, span{t.lo + m, t.n - m, t.dir})
				}
			}
			round(segs)
			active, next = next, active
		}
	}
}

// mergeExchangeRounds emits Batcher's merge-exchange network (Knuth
// 5.2.2M) as rounds: each (p, q, r, d) pass of the algorithm is one
// round — its comparator pairs (i, i+d) with i&p == r are mutually
// disjoint — expressed as the maximal runs of consecutive i sharing
// that residue. The comparator multiset and the order across rounds
// match the classic sequential formulation exactly.
func mergeExchangeRounds(n int, round func([]Segment)) {
	if n <= 1 {
		return
	}
	t := 0
	for 1<<t < n {
		t++
	}
	var segs []Segment
	for p := 1 << (t - 1); p > 0; p >>= 1 {
		q := 1 << (t - 1)
		r := 0
		d := p
		for {
			segs = segs[:0]
			// {i : i&p == r, 0 ≤ i < n-d} is a union of runs of length ≤ p
			// starting at multiples of 2p offset by r.
			for base := r; base < n-d; base += 2 * p {
				cnt := p
				if base+cnt > n-d {
					cnt = n - d - base
				}
				segs = append(segs, Segment{Lo: base, Cnt: cnt, Hop: d, Dir: 1})
			}
			if len(segs) > 0 {
				round(segs)
			}
			if q == p {
				break
			}
			d = q - p
			q >>= 1
			r = p
		}
	}
}
