package core

import (
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// AugmentTables is AugmentTablesFeed2 over two in-memory row slices.
// A slice feed cannot fail, so neither can it.
func AugmentTables(cfg *Config, rows1, rows2 []table.Row) (tc table.Store, t1, t2 table.Store, m int) {
	tc, t1, t2, m, _ = AugmentTablesFeed2(cfg, rowsFeed(rows1), rowsFeed(rows2))
	return tc, t1, t2, m
}

// RowFeed supplies one table's rows batch-wise: Len is the public total
// row count, Next returns the next batch (the slice may be reused
// between calls; nil at end of stream) and Close releases whatever the
// feed drains from. The streaming query executor's row sources satisfy
// it, which is how a join consumes an upstream stage's batches straight
// into TC without a whole-relation copy.
type RowFeed interface {
	Len() int
	Next() ([]table.Row, error)
	Close()
}

// rowsFeed adapts an in-memory row slice to the RowFeed contract: one
// batch holding every row, then end of stream. It is how the
// whole-slice entry points (AugmentTables, JoinKeyed, Join) run the one
// feed-shaped pipeline; it emits no events of its own.
func rowsFeed(rows []table.Row) RowFeed { return &sliceFeed{rows: rows} }

type sliceFeed struct {
	rows []table.Row
	done bool
}

func (f *sliceFeed) Len() int { return len(f.rows) }

func (f *sliceFeed) Next() ([]table.Row, error) {
	if f.done || len(f.rows) == 0 {
		return nil, nil
	}
	f.done = true
	return f.rows, nil
}

func (f *sliceFeed) Close() {}

// drainInto appends every batch of feed into bld tagged tid, closing
// the feed in all cases.
func drainInto(bld *table.Builder, feed RowFeed, tid uint64) error {
	defer feed.Close()
	for {
		b, err := feed.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		bld.AppendRows(b, tid)
	}
}

// AugmentTablesFeed2 implements Algorithm 2: it concatenates the two
// input tables (tagged with table IDs), sorts by ⟨j, tid⟩, computes the
// group dimensions α1 and α2 with one forward and one backward linear
// pass (Fill-Dimensions, Figure 2), re-sorts by ⟨tid, j, d⟩ and returns
// the combined store together with views of the two augmented tables
// and the output size m = Σ α1·α2 over groups.
//
// Both tables arrive batch-wise: batches append straight into TC
// through a table.Builder, so no staging copy of either side exists and
// the plaintext held at once is bounded by one builder chunk. The
// builder emits the ascending per-entry write events over [0, n1+n2),
// deferred behind any upstream drain reads, so the canonical trace is
// the same whatever the batching.
//
// The returned m is public: the paper's algorithm deliberately reveals
// the output length rather than padding to the quadratic worst case
// (§3.2, "Revealing Output Length").
func AugmentTablesFeed2(cfg *Config, feed1, feed2 RowFeed) (tc table.Store, t1, t2 table.Store, m int, err error) {
	st := cfg.stats()
	n1, n2 := feed1.Len(), feed2.Len()
	n := n1 + n2
	tc = cfg.Alloc(n)
	bld := table.NewBuilder(tc)
	if err := drainInto(bld, feed1, 1); err != nil {
		feed2.Close()
		return nil, nil, nil, 0, err
	}
	if bld.Pos() != n1 {
		panic("core: row feed yielded a different count than its public length")
	}
	if err := drainInto(bld, feed2, 2); err != nil {
		return nil, nil, nil, 0, err
	}
	if bld.Pos() != n {
		panic("core: row feed yielded a different count than its public length")
	}
	bld.Flush()

	cfg.SortStore(tc, table.LessJTID, &st.AugmentSort)
	m = fillDimensions(cfg, tc)
	cfg.SortStore(tc, table.LessTIDJD, &st.AugmentSort)

	t1 = view{s: tc, off: 0, size: n1}
	t2 = view{s: tc, off: n1, size: n2}
	return tc, t1, t2, m, nil
}

// fillDimensions computes α1 and α2 for every entry of tc, which must be
// sorted by ⟨j, tid⟩, and returns the total output size m. Each
// direction is one carry scan — one read and one write per index,
// executed by the blocked scan engine (scan.go) so the store traffic
// batches; all data-dependent state lives in a constant number of local
// variables and is manipulated branch-free.
func fillDimensions(cfg *Config, tc table.Store) int {
	// Forward pass: store incremental counts. Within a group (a run of
	// equal j), entries from T1 precede entries from T2; c1 counts T1
	// entries seen in the current group, c2 counts T2 entries. The last
	// entry of each group ends up holding the group's true (α1, α2).
	var jprev, c1, c2 uint64
	started := uint64(0) // becomes 1 after the first entry
	cfg.ScanStore(tc, false, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, jprev))
		c1 = obliv.Select(same, c1, 0)
		c2 = obliv.Select(same, c2, 0)
		isT1 := obliv.Eq(e.TID, 1)
		c1 += isT1
		c2 += obliv.Not(isT1)
		e.A1 = c1
		e.A2 = c2
		jprev = e.J
		started = 1
	})

	// Backward pass: propagate each group's final counts (found in its
	// last entry, the first one seen scanning backwards) to the whole
	// group, accumulating m = Σ α1·α2 once per group.
	var a1, a2, mAcc uint64
	jprev, started = 0, 0
	cfg.ScanStore(tc, true, func(_ int, e *table.Entry) {
		same := obliv.And(started, obliv.Eq(e.J, jprev))
		a1 = obliv.Select(same, a1, e.A1)
		a2 = obliv.Select(same, a2, e.A2)
		mAcc += obliv.Select(same, 0, e.A1*e.A2)
		e.A1 = a1
		e.A2 = a2
		jprev = e.J
		started = 1
	})
	return int(mAcc)
}
