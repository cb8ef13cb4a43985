package bitonic

// SortParallel sorts a ascending using the bitonic network's round
// schedule executed across up to workers lanes of a persistent shared
// worker pool (workers ≤ 0 means GOMAXPROCS, 1 means sequential). Each
// round is a vector of disjoint comparator segments — a pure function
// of a.Len() — partitioned contiguously across the lanes, with a
// barrier between rounds, so the parallel network performs exactly the
// same compare–exchanges as the sequential one.
//
// The paper points out that "almost all parts of our algorithm are
// amenable to parallelization since they heavily rely on sorting
// networks, whose depth is O(log² n)"; this function is that claim for
// the sorting phases.
//
// Instrumentation is parallel-safe: comparator counts accumulate
// deterministically at round barriers, and when the store records a
// trace (and implements Sharder), each lane records into a private
// trace.Buffer that is replayed into the store's recorder in canonical
// lane order at every barrier — the recorded trace is bit-identical to
// a sequential run's. Stores that cannot be sharded (no Sharder
// implementation, or an enclave cost model attached) degrade to
// sequential execution over the same schedule, preserving the trace.
func SortParallel[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, workers int) {
	SortParallelCheck(a, less, swap, st, workers, nil)
}

// SortParallelCheck is SortParallel with a cancellation probe invoked
// at round barriers (see RunRoundsCheck); check may be nil.
func SortParallelCheck[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, workers int, check func()) {
	n := a.Len()
	if n <= 1 {
		return
	}
	c := RunRoundsCheck(a, compareExchange(less, swap), workers, check, func(round func([]Segment)) {
		bitonicRounds(n, round)
	})
	if st != nil {
		st.CompareExchanges += c
	}
}

// MergeExchangeSortParallel is MergeExchangeSort executed across up to
// workers lanes, with the same determinism guarantees as SortParallel:
// identical comparator set, identical canonical trace. Its rounds are
// the (p, q, r, d) passes of Knuth's Algorithm M, which are fewer but
// less uniform than the bitonic rounds.
func MergeExchangeSortParallel[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, workers int) {
	MergeExchangeSortParallelCheck(a, less, swap, st, workers, nil)
}

// MergeExchangeSortParallelCheck is MergeExchangeSortParallel with a
// cancellation probe invoked at round barriers; check may be nil.
func MergeExchangeSortParallelCheck[T any](a Array[T], less LessFunc[T], swap CondSwapFunc[T], st *Stats, workers int, check func()) {
	n := a.Len()
	if n <= 1 {
		return
	}
	c := RunRoundsCheck(a, compareExchange(less, swap), workers, check, func(round func([]Segment)) {
		mergeExchangeRounds(n, round)
	})
	if st != nil {
		st.CompareExchanges += c
	}
}
