// Package shard implements hash-partitioned parallel execution of the
// oblivious join: rows of each input are obliviously routed into S
// partitions padded to a public size, the S per-shard join pipelines
// run concurrently on private worker groups, and an oblivious merge
// recombines the outputs into exactly the sequence the unsharded
// pipeline emits.
//
// Obliviousness composes piecewise. Routing is one carry scan plus the
// core Oblivious-Distribute, whose trace is a fixed function of (n,
// S·cap); each shard's pipeline is the unmodified core join over the
// padded public sizes (capL, capR), so its canonical trace log is
// bit-identical to a standalone join of those sizes; the merge is one
// oblivious sort of the (public) total output. Per-shard output sizes
// m_s are public for the same reason the paper reveals m. The run's
// composed trace hash absorbs the per-shard digests at fixed points of
// the parent stream (trace.Hasher.Absorb), making it a deterministic
// function of the public sizes, the shard count and the store mode.
//
// Correctness of the recombination relies on the join's output order:
// core.JoinKeyed emits pairs sorted by (j, d1, d2) — T1 is sorted by
// (j, d1) after augment, expansion preserves that order, and the
// alignment places the c-th copy block in d2 order — and duplicate
// (j, d1, d2) triples are byte-identical. Sorting the concatenation of
// the per-shard outputs by (j, d1, d2) therefore reproduces the
// unsharded output exactly, as a sequence.
package shard

import (
	"encoding/binary"
	"sync"

	"oblivjoin/internal/core"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// Unit is one concurrent execution unit's private context: a
// core.Config over a fresh memory space with its own trace recorder
// and allocation gauge, so units run concurrently without sharing any
// mutable instrumentation. The query runner builds Units (Group.New)
// mirroring the run's allocator stack — same store mode, same spill
// policy — and the scheduler folds each unit's readings back into the
// parent run at a deterministic barrier (absorb).
type Unit struct {
	// Cfg drives the unit's pipeline. Its Alloc must allocate from a
	// private memory space recording into Hasher or Counter (or
	// nothing), and its Mem must be Gauge.
	Cfg *core.Config
	// Hasher is the unit's trace sink when the run hashes traces; its
	// digest is absorbed into the parent hasher at the barrier.
	Hasher *trace.Hasher
	// Counter is the unit's event tally when the run only counts.
	Counter *trace.Counter
	// Gauge tracks the unit's allocations; its peak and totals fold
	// into the parent gauge at the barrier, and ReleaseAll on unit exit
	// frees whatever the unit abandoned (spill files included).
	Gauge *table.Gauge
}

// Group is the sharded execution seam the query runner hands down when
// Options.Shards > 1. It pairs the parent run's config and
// instrumentation with a factory for per-unit contexts; the join
// operators call JoinKeyed on it instead of core.JoinKeyed.
type Group struct {
	// Parent is the run's own config: the merge phase allocates and
	// sorts through it, so merge events land in the run's canonical
	// trace after the absorbed unit digests.
	Parent *core.Config
	// Shards is the requested partition count S (> 1). The effective
	// count may fall back lower when a skewed key set overflows the
	// padded capacities.
	Shards int
	// Hasher and Counter mirror the parent run's trace sink (at most
	// one non-nil); unit digests and tallies are absorbed in unit
	// order at each barrier.
	Hasher  *trace.Hasher
	Counter *trace.Counter
	// Gauge is the run's allocation gauge; concurrent units' peaks are
	// folded in as if every unit hit its high-water mark at once — a
	// deterministic upper bound on the true concurrent peak.
	Gauge *table.Gauge
	// New builds a fresh Unit. Called sequentially by the scheduler.
	New func() *Unit
}

type side int

const (
	sideLeft side = iota + 1
	sideRight
)

// JoinKeyed computes exactly core.JoinKeyed over the two feeds,
// hash-partitioned into (up to) g.Shards concurrently executed
// shards. Both feeds drain incrementally into per-side routing units;
// cancellation aborts with a core.Abort panic like every core
// operator, after every unit goroutine has been joined.
func (g *Group) JoinKeyed(feed1, feed2 core.RowFeed) ([]table.KeyedPair, error) {
	n1, n2 := feed1.Len(), feed2.Len()
	if pst := g.Parent.Stats; pst != nil {
		pst.N1, pst.N2 = n1, n2
	}
	s := g.Shards
	if s > MaxShards {
		s = MaxShards
	}
	chain := chainFor(s)

	var units []*Unit
	defer func() {
		// Backstop (idempotent): unit goroutines release on exit, but
		// early error returns must not leak spill files either.
		for _, u := range units {
			u.Gauge.ReleaseAll()
		}
	}()

	// Drain both sides into their routing units' stores, counting the
	// candidate-chain histograms on the rows as they stream by (local
	// protected state; no trace events).
	uL, uR := g.New(), g.New()
	units = append(units, uL, uR)
	hl, hr := newHistogram(chain), newHistogram(chain)
	stL, err := g.drainSide(uL, feed1, hl)
	if err != nil {
		feed2.Close()
		return nil, err
	}
	stR, err := g.drainSide(uR, feed2, hr)
	if err != nil {
		return nil, err
	}
	eff := effective(hl, hr, n1, n2)
	capL, capR := capFor(n1, eff), capFor(n2, eff)

	// Route the two sides concurrently, one unit each: tag/offset
	// scan, oblivious distribute to eff·cap padded slots, then padded
	// extraction with per-shard dummy keys.
	w := g.Parent.WorkerCount()
	uL.Cfg.Workers = lanes(w, 2)
	uR.Cfg.Workers = lanes(w, 2)
	var rowsL, rowsR [][]table.Row
	runUnits([]*Unit{uL, uR}, func(i int) error {
		if i == 0 {
			rowsL = routeSide(uL.Cfg, stL, eff, capL, sideLeft)
		} else {
			rowsR = routeSide(uR.Cfg, stR, eff, capR, sideRight)
		}
		return nil
	})
	g.absorb([]*Unit{uL, uR})

	// Per-shard joins, concurrently: each shard is an unmodified core
	// join over the padded public sizes, in its own unit.
	su := make([]*Unit, eff)
	for i := range su {
		su[i] = g.New()
		su[i].Cfg.Workers = lanes(w, eff)
	}
	units = append(units, su...)
	bufBytes := int64(eff) * (int64(capL) + int64(capR)) * int64(8+table.DataLen)
	g.Gauge.Charge(bufBytes)
	outs := make([][]table.KeyedPair, eff)
	errs := runUnits(su, func(i int) error {
		out, err := core.JoinKeyedFeed2(su[i].Cfg, core.RowsFeed(rowsL[i]), core.RowsFeed(rowsR[i]))
		outs[i] = out
		return err
	})
	g.absorb(su)
	for _, err := range errs {
		if err != nil {
			g.Gauge.Discharge(bufBytes)
			return nil, err
		}
	}

	out := g.merge(outs)
	g.Gauge.Discharge(bufBytes)
	if pst := g.Parent.Stats; pst != nil {
		pst.M = len(out)
	}
	return out, nil
}

// lanes divides w worker lanes among k concurrent units, at least one
// each.
func lanes(w, k int) int {
	if w <= k {
		return 1
	}
	return w / k
}

// drainSide drains one side's feed into the unit's store through a
// table.Builder (deferred trace writes, like every streaming fill),
// folding each row's key into the candidate histograms. Probes the
// parent context at batch boundaries.
func (g *Group) drainSide(u *Unit, feed core.RowFeed, h *histogram) (table.Store, error) {
	n := feed.Len()
	st := u.Cfg.Alloc(n)
	bld := table.NewBuilder(st)
	for {
		g.Parent.CheckCtx()
		b, err := feed.Next()
		if err != nil {
			feed.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		for _, r := range b {
			h.add(r.J)
		}
		bld.AppendRows(b, 0)
	}
	feed.Close()
	if bld.Pos() != n {
		panic("shard: row feed yielded a different count than its public length")
	}
	bld.Flush()
	return st, nil
}

// routeSide obliviously routes one drained side into eff partitions of
// cap padded rows each. One carry scan assigns every row its
// destination F = tag·cap + rank(tag) + 1 — ranks come from eff local
// counters updated branch-free, so the scan's trace is the store's
// fixed read/write sequence — then the core distribute places each row
// at its slot and ∅-pads the rest, and the padded regions are read out
// in shard order with dummy keys substituted for ∅ entries. At eff = 1
// (overflow fallback) the side is read out whole, unpadded.
func routeSide(cfg *core.Config, st table.Store, eff, cap int, sd side) [][]table.Row {
	if eff == 1 {
		rows := extract(cfg, st, 0, st.Len(), 0)
		cfg.ReleaseStore(st)
		return [][]table.Row{rows}
	}
	cnt := make([]uint64, eff)
	cfg.ScanStore(st, false, func(_ int, e *table.Entry) {
		tag := tagOf(e.J, eff)
		var r uint64
		for s := 0; s < eff; s++ {
			hit := obliv.Eq(tag, uint64(s))
			r |= hit * cnt[s]
			cnt[s] += hit
		}
		e.II = tag
		e.F = tag*uint64(cap) + r + 1
	})
	dist := core.ExtObliviousDistribute(cfg, st, eff*cap)
	cfg.ReleaseStore(st)
	out := make([][]table.Row, eff)
	for s := 0; s < eff; s++ {
		dl, dr := dummyKeys(s, eff)
		dummy := dl
		if sd == sideRight {
			dummy = dr
		}
		out[s] = extract(cfg, dist, s*cap, cap, dummy)
	}
	cfg.ReleaseStore(dist)
	return out
}

// extractBlk is the block width of the padded read-out and the merge
// fill/collect loops (matches the zip block of core).
const extractBlk = 1024

// extract reads st[lo, lo+n) into rows, substituting dummy for the key
// of ∅ entries branch-free (∅ payloads are already zero). The read
// pattern is the fixed ascending range; which slots are ∅ never shows.
func extract(cfg *core.Config, st table.Store, lo, n int, dummy uint64) []table.Row {
	rows := make([]table.Row, n)
	buf := make([]table.Entry, min(extractBlk, max(n, 1)))
	for off := 0; off < n; off += extractBlk {
		if off > 0 {
			cfg.CheckCtx()
		}
		c := min(extractBlk, n-off)
		st.GetRange(lo+off, buf[:c])
		for i := 0; i < c; i++ {
			e := &buf[i]
			rows[off+i] = table.Row{J: obliv.Select(e.Null, dummy, e.J), D: e.D}
		}
	}
	return rows
}

// lessJD1D2 orders merge entries by (j, d1, d2): D holds d1 and A1‖A2
// hold d2 big-endian, so the two uint64 comparisons equal the
// byte-lexicographic order of d2 (the argument table.LessData rests on).
func lessJD1D2(x, y table.Entry) uint64 {
	lj, ej := obliv.Less(x.J, y.J), obliv.Eq(x.J, y.J)
	ld, ed := table.LessData(x.D, y.D), table.EqData(x.D, y.D)
	l1, e1 := obliv.Less(x.A1, y.A1), obliv.Eq(x.A1, y.A1)
	l2 := obliv.Less(x.A2, y.A2)
	return obliv.Or(lj, obliv.And(ej, obliv.Or(ld, obliv.And(ed, obliv.Or(l1, obliv.And(e1, l2))))))
}

// merge recombines the per-shard outputs in the parent space: pack the
// concatenation into a store (d2 split big-endian across A1/A2), one
// oblivious sort by (j, d1, d2), read back out. Comparators land in
// the parent's relational-sort bucket.
func (g *Group) merge(outs [][]table.KeyedPair) []table.KeyedPair {
	cfg := g.Parent
	m := 0
	for _, o := range outs {
		m += len(o)
	}
	a := cfg.Alloc(m)
	bld := table.NewBuilder(a)
	buf := make([]table.Entry, min(extractBlk, max(m, 1)))
	for _, o := range outs {
		for len(o) > 0 {
			cfg.CheckCtx()
			c := min(extractBlk, len(o))
			for i, p := range o[:c] {
				buf[i] = table.Entry{J: p.J, D: p.D1,
					A1: binary.BigEndian.Uint64(p.D2[0:8]),
					A2: binary.BigEndian.Uint64(p.D2[8:16])}
			}
			bld.AppendEntries(buf[:c])
			o = o[c:]
		}
	}
	bld.Flush()
	cfg.SortStore(a, lessJD1D2, cfg.RelationalSortStats())
	out := make([]table.KeyedPair, m)
	for lo := 0; lo < m; lo += extractBlk {
		if lo > 0 {
			cfg.CheckCtx()
		}
		c := min(extractBlk, m-lo)
		a.GetRange(lo, buf[:c])
		for i := 0; i < c; i++ {
			e := &buf[i]
			p := table.KeyedPair{J: e.J, D1: e.D}
			binary.BigEndian.PutUint64(p.D2[0:8], e.A1)
			binary.BigEndian.PutUint64(p.D2[8:16], e.A2)
			out[lo+i] = p
		}
	}
	cfg.ReleaseStore(a)
	return out
}

// runUnits executes work(i) for each unit on its own goroutine and
// joins them all before returning — cancellation included, so a
// sharded run never leaks a goroutine. Unit gauges release on exit
// (spill-file cleanup even under a panic). A core.Abort from any unit
// re-raises on the caller after the join, exactly like a sequential
// abort; any other panic is a programming error and re-raises as
// itself.
func runUnits(units []*Unit, work func(i int) error) []error {
	var wg sync.WaitGroup
	panics := make([]any, len(units))
	errs := make([]error, len(units))
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
				units[i].Gauge.ReleaseAll()
			}()
			errs[i] = work(i)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p == nil {
			continue
		}
		if _, ok := p.(core.Abort); !ok {
			panic(p)
		}
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return errs
}

// absorb folds the units' instrumentation into the parent run in unit
// order: trace digests (or tallies), per-phase stats, then one gauge
// fold modeling every unit at its peak concurrently. Called only at
// post-join barriers, so the absorption points — and hence the
// composed trace hash — are a fixed function of the public plan.
func (g *Group) absorb(units []*Unit) {
	var peak, total, spills, spillBytes int64
	for _, u := range units {
		switch {
		case g.Hasher != nil && u.Hasher != nil:
			g.Hasher.Absorb(u.Hasher.Sum(), u.Hasher.Count())
		case g.Counter != nil && u.Counter != nil:
			g.Counter.Add(u.Counter)
		}
		if g.Parent.Stats != nil && u.Cfg.Stats != nil {
			g.Parent.Stats.Add(u.Cfg.Stats)
		}
		peak += u.Gauge.Peak()
		total += u.Gauge.Total()
		spills += u.Gauge.Spills()
		spillBytes += u.Gauge.SpillBytes()
	}
	g.Gauge.Absorb(peak, total, spills, spillBytes)
}
