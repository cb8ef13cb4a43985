package core

import (
	"math/bits"
	"math/rand"
	"time"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// ExtObliviousDistribute implements the extended Oblivious-Distribute of
// Algorithms 3 and 4: given a store x of n entries in which every
// non-null entry carries a distinct destination F ∈ {1…m} (1-based; null
// entries have F = 0 and are discarded), it returns a store of exactly m
// entries with each non-null entry at index F−1 and ∅ entries elsewhere.
//
// The deterministic variant (cfg.Probabilistic == false) sorts by
// ⟨≠∅↑, f↑⟩ and then routes entries towards their destinations in
// ⌈log₂ L⌉ passes of power-of-two hops, L = max(n, m). Each inner step
// reads two fixed locations and writes them back, swapping exactly when
// the lower entry can hop without overshooting (Theorem 1 proves the
// target slot is always ∅ then). The memory trace is a fixed function of
// n and m.
func ExtObliviousDistribute(cfg *Config, x table.Store, m int) table.Store {
	if cfg.Probabilistic {
		return prpDistribute(cfg, x, m)
	}
	st := cfg.stats()
	n := x.Len()
	l := n
	if m > l {
		l = m
	}

	t0 := time.Now()
	a := cfg.Alloc(l)
	buf := make([]table.Entry, l)
	loadRange(x, 0, buf[:n])
	for i := n; i < l; i++ {
		buf[i] = table.Entry{Null: 1}
	}
	storeRange(a, 0, buf)
	cfg.SortStore(a, table.LessNullF, &st.DistributeSort)
	st.TDistSort += time.Since(t0)

	t0 = time.Now()
	routeDown(cfg, a, l, st)
	st.TDistRoute += time.Since(t0)

	if l == m {
		return a
	}
	return view{s: a, off: 0, size: m}
}

// routeDown performs the O(L log L) hop loop of Algorithm 3 over the
// first l entries of a. Entries must be sorted with all non-null
// entries first in increasing F order.
//
// The classic formulation iterates i from l-j-1 down to 0 for each hop
// j; iteration i only depends on iterations ≥ i+j (the sole earlier
// writer of a position it reads), so any j consecutive iterations form
// a wave of disjoint pairs. Each wave is one round for the shared
// round executor (bitonic.RunRoundsCheck): waves run top-down with a
// barrier between them, wave members execute batched and in parallel.
// The dataflow — and hence Theorem 1's invariant — is exactly that of
// the sequential loop.
func routeDown(cfg *Config, a table.Store, l int, st *Stats) {
	if l <= 1 {
		return
	}
	op := func(s bitonic.Segment, y, y2 []table.Entry) {
		// Hop when the (1-based) destination of y[k] is at or past the
		// absolute 1-based position of its high side y2[k]. Null
		// entries have F = 0 and never hop.
		pos := uint64(s.Lo + s.Hop + 1)
		y2 = y2[:len(y)]
		for k := range y {
			c := obliv.GreaterEq(y[k].F, pos+uint64(k))
			table.CondSwapEntry(c, &y[k], &y2[k])
		}
	}
	st.RouteOps += bitonic.RunRoundsCheck[table.Entry](a, op, cfg.workerCount(), cfg.checkFn(),
		func(round func([]bitonic.Segment)) {
			seg := make([]bitonic.Segment, 1)
			for j := 1 << (bits.Len(uint(l-1)) - 1); j >= 1; j >>= 1 {
				for hi := l - j - 1; hi >= 0; hi -= j {
					lo := hi - j + 1
					if lo < 0 {
						lo = 0
					}
					seg[0] = bitonic.Segment{Lo: lo, Cnt: hi - lo + 1, Hop: j, Dir: 1}
					round(seg)
				}
			}
		})
}

// prpDistribute is the probabilistic variant sketched in §5.2: place
// each entry at a pseudorandomly permuted image of its destination, then
// obliviously sort by the permutation's inverse. The adversary observes
// writes at a uniformly random set of distinct positions followed by the
// input-independent accesses of the sorting network, so the procedure is
// oblivious in distribution rather than deterministically.
//
// Null entries are assigned distinct synthetic destinations m, m+1, …
// past the real range, which requires the scratch array to have n+m
// slots — the price of the probabilistic variant, along with the PRP
// assumption itself (§5.2 discusses why the deterministic network is
// preferable in practice).
func prpDistribute(cfg *Config, x table.Store, m int) table.Store {
	st := cfg.stats()
	n := x.Len()
	l := n + m

	t0 := time.Now()
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(l) // π over [0, l)
	a := cfg.Alloc(l)
	var empty table.Entry
	empty.Null = 1
	for i := 0; i < l; i++ {
		a.Set(i, empty)
	}
	var nulls uint64 // running count of discarded entries
	for i := 0; i < n; i++ {
		e := x.Get(i)
		// Real entries target F−1 ∈ [0, m); null ones take the next
		// synthetic slot in [m, m+n).
		dest := obliv.Select(e.Null, uint64(m)+nulls, e.F-1)
		nulls += e.Null
		a.Set(perm[dest], e)
	}
	// Tag every slot with the inverse-permutation key and sort by it:
	// position p holds key π⁻¹(p), so after sorting each real entry sits
	// at its original destination. The II field is unused this early in
	// the pipeline, so it carries the key.
	inv := make([]int, l)
	for p, q := range perm {
		inv[q] = p
	}
	cfg.ScanStore(a, false, func(p int, e *table.Entry) {
		e.II = uint64(inv[p])
	})
	st.TDistRoute += time.Since(t0)

	t0 = time.Now()
	cfg.SortStore(a, lessII, &st.DistributeSort)
	st.TDistSort += time.Since(t0)

	return view{s: a, off: 0, size: m}
}

func lessII(x, y table.Entry) uint64 { return obliv.Less(x.II, y.II) }
