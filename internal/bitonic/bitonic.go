// Package bitonic implements data-oblivious sorting networks.
//
// The primary network is Batcher's bitonic sorter (§3.5 of the paper),
// generalized to arbitrary input lengths with the standard recursive
// construction: the comparator schedule depends only on the input length
// n, never on the data. Every compare–exchange reads both elements,
// conditionally swaps them without branching, and writes both back, so
// the public memory trace is a fixed function of n.
//
// Batcher's merge-exchange sort (Knuth 5.2.2M, the odd-even network) is
// provided as an alternative with fewer comparators; the repository's
// ablation benchmarks compare the two.
//
// Comparators are supplied by the caller as branch-free Less functions
// returning 0/1 words (see internal/obliv and internal/table); the
// conditional swap is likewise supplied so element types control their
// own constant-time swapping.
//
// One round executor (exec.go) runs both networks and the routing
// network of internal/core: it loads a chunk of the store into a local
// block and applies a Kernel to each comparator segment, as two
// equal-length sub-slices of that block. The sorting kernel branches on
// Segment.Dir to pick the operand order and then evaluates Less once per
// pair. That branch is oblivious: Dir is the schedule, a pure function
// of the public length n, so every input of that length takes it the
// same way. The result of Less is the opposite case — it depends on
// entry contents, so nothing may branch or index on it; it only feeds
// the constant-time swap.
package bitonic

import "oblivjoin/internal/memory"

// Array is the storage a sorting network operates on: indexed element
// access with public indices. *memory.Array[T] implements it directly;
// encrypted stores (internal/table) implement it with transparent
// re-encryption on every write.
type Array[T any] interface {
	Len() int
	Get(i int) T
	Set(i int, v T)
}

// LessFunc reports, in constant time, whether x orders strictly before y:
// it must return 1 or 0 and must not branch on its arguments.
type LessFunc[T any] func(x, y T) uint64

// CondSwapFunc swaps x and y in constant time when c == 1 and must touch
// both regardless of c.
type CondSwapFunc[T any] func(c uint64, x, y *T)

// Stats accumulates comparator counts across sorts; pass nil to skip
// counting. The counts feed the comparison columns of Table 3.
type Stats struct {
	CompareExchanges uint64
}

// Sort sorts a ascending by less using the bitonic network. It
// performs O(n log² n) compare–exchanges with a schedule depending only
// on a.Len().
func Sort[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats) {
	SortCheck(a, less, swap, st, nil)
}

// SortCheck is Sort with a cancellation probe (see RunRoundsCheck);
// check may be nil.
func SortCheck[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, check func()) {
	runNetwork(a, less, swap, st, check, bitonicRounds)
}

// runNetwork executes one sorting network's round schedule over a and
// adds its comparator count to st.
func runNetwork[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, check func(), rounds func(n int, round func([]Segment))) {
	n := a.Len()
	if n <= 1 {
		return
	}
	c := RunRoundsCheck(a, compareExchange(less, swap), check, func(round func([]Segment)) {
		rounds(n, round)
	})
	if st != nil {
		st.CompareExchanges += c
	}
}

// compareExchange builds the Kernel of a sorting network: order every
// pair of the segment towards s.Dir, touching both elements regardless.
// Ascending, a pair is out of order when y < x; descending, when x < y —
// the same test with the sides exchanged, so the (public) direction is
// resolved once per segment and less runs once per pair.
func compareExchange[T any](less LessFunc[T], swap CondSwapFunc[T]) Kernel[T] {
	return func(s Segment, x, y []T) {
		if s.Dir == 0 {
			x, y = y, x
		}
		y = y[:len(x)]
		for k := range x {
			swap(less(y[k], x[k]), &x[k], &y[k])
		}
	}
}

// SortSlice sorts a plain slice through a throwaway untraced space; a
// convenience for callers that need oblivious ordering semantics without
// trace plumbing.
func SortSlice[T any](data []T, less LessFunc[T], swap CondSwapFunc[T], st *Stats) {
	sp := memory.NewSpace(nil, nil)
	Sort(memory.FromSlice(sp, data, 1), less, swap, st)
}

func greatestPowerOfTwoLessThan(n int) int {
	k := 1
	for k < n {
		k <<= 1
	}
	return k >> 1
}

// MergeExchangeSort sorts a ascending using Batcher's merge-exchange
// network (Knuth, TAOCP 5.2.2, Algorithm M). It performs roughly half the
// compare–exchanges of the bitonic network and is likewise
// data-independent for a fixed length; its rounds are less regular
// than the bitonic network's, which is why the paper's implementation
// (and ours) defaults to bitonic.
func MergeExchangeSort[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats) {
	MergeExchangeSortCheck(a, less, swap, st, nil)
}

// MergeExchangeSortCheck is MergeExchangeSort with a cancellation
// probe; check may be nil.
func MergeExchangeSortCheck[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, check func()) {
	runNetwork(a, less, swap, st, check, mergeExchangeRounds)
}

// MergeExchangeComparators returns the exact number of
// compare–exchanges Batcher's merge-exchange network performs on an
// input of length n, by enumerating the same round schedule the
// executor runs. Together with Comparators this gives the planner an
// exact, content-independent cost model for either network.
func MergeExchangeComparators(n int) uint64 {
	var c uint64
	mergeExchangeRounds(n, func(segs []Segment) {
		for _, s := range segs {
			c += uint64(s.Cnt)
		}
	})
	return c
}

// Comparators returns the exact number of compare–exchanges the bitonic
// network performs on an input of length n; useful for cross-checking
// Table 3's analytic counts without running a sort.
func Comparators(n int) uint64 {
	var c uint64
	var sort func(n int)
	var merge func(n int)
	merge = func(n int) {
		if n <= 1 {
			return
		}
		m := greatestPowerOfTwoLessThan(n)
		c += uint64(n - m)
		merge(m)
		merge(n - m)
	}
	sort = func(n int) {
		if n <= 1 {
			return
		}
		m := n / 2
		sort(m)
		sort(n - m)
		merge(n)
	}
	sort(n)
	return c
}
