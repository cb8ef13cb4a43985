package core

import (
	"time"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// AlignTable implements Algorithm 5: it reorders the expanded table S2
// in place so that row i of S2 matches row i of S1.
//
// After expansion, each group of S2 is a block of α1·α2 entries in which
// every T2 entry appears α1 times contiguously. S1's group block lists
// every T1 entry α2 times contiguously, so position r within an S1 block
// holds T1-entry ⌊r/α2⌋ and must pair with T2-entry (r mod α2). The
// c-th copy of T2-entry l (at block offset q = l·α1 + c) therefore moves
// to offset
//
//	ii = (q mod α1)·α2 + ⌊q/α1⌋.
//
// Note: Algorithm 5 in the paper prints this formula with α1 and α2
// interchanged (ii = ⌊q/α2⌋ + (q mod α2)·α1), which contradicts the
// paper's own worked example in Figures 1 and 5 (it would map the second
// copy of (x,u1) to index 2 rather than 3). The form implemented here is
// the one consistent with the figures and with the expansion layout.
//
// The block offset q is maintained exactly like the counter in
// Fill-Dimensions: reset on a join-value change, branch-free. The final
// bitonic sort by ⟨j, ii⟩ realizes the permutation obliviously.
func AlignTable(cfg *Config, s2 table.Store) {
	st := cfg.stats()
	t0 := time.Now()
	var jprev, q uint64
	started := uint64(0)
	cfg.ScanStore(s2, false, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, jprev))
		q = obliv.Select(same, q+1, 0)
		// Every entry of S2 originates from T2, so e.A1 ≥ 1; the divisor
		// is never zero. (Division operand timing is uniform in the
		// paper's machine model, §3.1.)
		e.II = (q%e.A1)*e.A2 + q/e.A1
		jprev = e.J
		started = 1
	})
	st.TAlign += time.Since(t0)

	t0 = time.Now()
	cfg.SortStore(s2, table.LessJII, &st.AlignSort)
	st.TAlign += time.Since(t0)
}
