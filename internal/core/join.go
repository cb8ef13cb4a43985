package core

import (
	"time"

	"oblivjoin/internal/table"
)

// Join computes the binary equi-join of two unsorted tables using the
// full oblivious pipeline of Algorithm 1. The result contains one
// (d1, d2) pair per matching pair of input rows, ordered by
// (j, d1, alignment); its length m is public. It is JoinKeyed without
// the join column.
func Join(cfg *Config, rows1, rows2 []table.Row) []table.Pair {
	kp := JoinKeyed(cfg, rows1, rows2)
	out := make([]table.Pair, len(kp))
	for i, p := range kp {
		out[i] = table.Pair{D1: p.D1, D2: p.D2}
	}
	return out
}

// JoinKeyed is JoinKeyedFeed2 over two in-memory row slices. A slice
// feed cannot fail, so neither can it.
func JoinKeyed(cfg *Config, rows1, rows2 []table.Row) []table.KeyedPair {
	out, _ := JoinKeyedFeed2(cfg, rowsFeed(rows1), rowsFeed(rows2))
	return out
}

// JoinKeyedFeed2 is Algorithm 1, the one body of the join pipeline:
// Augment-Tables, two Oblivious-Expands, Align-Table, then a zip that
// keeps the join value in each output row, making the result directly
// re-joinable (the composition §7 of the paper sketches for multi-way
// joins). Both tables arrive batch-wise: upstream batches append
// straight into TC (no staging slices), and the join's internal stores
// are released into the run's gauge the moment the pipeline is done
// with them — TC after the two expands, S1 and S2 after the zip — so
// the streaming executor's peak is the phase maximum, not the sum.
func JoinKeyedFeed2(cfg *Config, feed1, feed2 RowFeed) ([]table.KeyedPair, error) {
	if cfg.Alloc == nil {
		panic("core: Config.Alloc is required")
	}
	st := cfg.stats()
	st.N1, st.N2 = feed1.Len(), feed2.Len()

	t0 := time.Now()
	tc, t1, t2, m, err := AugmentTablesFeed2(cfg, feed1, feed2)
	if err != nil {
		return nil, err
	}
	st.TAugment += time.Since(t0)
	st.M = m

	s1 := ObliviousExpand(cfg, t1, GAlpha2, m)
	s2 := ObliviousExpand(cfg, t2, GAlpha1, m)
	cfg.ReleaseStore(tc)
	AlignTable(cfg, s2)

	t0 = time.Now()
	out := make([]table.KeyedPair, m)
	zipStores(cfg, s1, s2, m, func(i int, e1, e2 *table.Entry) {
		out[i] = table.KeyedPair{J: e1.J, D1: e1.D, D2: e2.D}
	})
	cfg.ReleaseStore(s1)
	cfg.ReleaseStore(s2)
	st.TZip += time.Since(t0)
	return out, nil
}

// zipStores reads s1 and s2 in lockstep blocks (batched when the
// stores support ranges) and hands each aligned entry pair to fn,
// probing for cancellation at block boundaries.
func zipStores(cfg *Config, s1, s2 table.Store, m int, fn func(i int, e1, e2 *table.Entry)) {
	const blk = 1024
	check := cfg.checkFn()
	var b1, b2 [blk]table.Entry
	for lo := 0; lo < m; lo += blk {
		if check != nil && lo > 0 {
			check()
		}
		cnt := m - lo
		if cnt > blk {
			cnt = blk
		}
		loadRange(s1, lo, b1[:cnt])
		loadRange(s2, lo, b2[:cnt])
		for k := 0; k < cnt; k++ {
			fn(lo+k, &b1[k], &b2[k])
		}
	}
}

// OutputSize runs only the Augment-Tables stage and reports the join's
// output cardinality m without materializing it. The paper's two-stage
// circuit decomposition (§3.4, constraint 3) needs exactly this value
// before the second, m-parameterized stage is laid out.
func OutputSize(cfg *Config, rows1, rows2 []table.Row) int {
	if cfg.Alloc == nil {
		panic("core: Config.Alloc is required")
	}
	_, _, _, m := AugmentTables(cfg, rows1, rows2)
	return m
}
