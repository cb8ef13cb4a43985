package core

import (
	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// This file is the execution engine for the pipeline's linear passes
// (Fill-Dimensions, the expansion prefix sum and fill-down, the
// alignment indexing). A pass is a carry scan: it visits every entry
// once, in index order, threading a constant-size protected state. The
// engine executes a pass block by block — read a block as one batched
// range, apply the carry function over the buffered block in logical
// order (identical code to the naive loop, so the semantics cannot
// drift), write the block back — so the observable access pattern is
// "R-run(block), W-run(block)" per block in canonical block order, a
// fixed function of n.
//
// Sequentially this keeps the protected working set at one block. In
// parallel, the read phase of every block runs first (partitioned
// across worker lanes), then the carry function over the whole buffered
// table, then the write phase — but each block's events are recorded to
// that block's own shard buffer and replayed in the canonical
// per-block interleaved order at the phase barrier, so the recorded
// trace is bit-identical to the sequential run's at every parallelism
// degree. (The paper's formulation interleaves the read and write per
// index; either pattern is input-independent, and the block form is
// what makes batching and parallel lanes possible.)

// scanBlock is the number of entries per block: the unit of batched
// range access, of the canonical trace's run structure, and of the
// sequential working set. A fixed constant — never derived from the
// worker count — so the trace is identical at every parallelism
// degree.
const scanBlock = 4096

// ScanStore applies fn to every entry of st exactly once, in ascending
// index order (descending when reverse), with one read and one write
// per index. fn may mutate the entry in place; the index passed is the
// entry's position in st. Exported so the relational operators'
// carry scans (filter flagging, duplicate marking, group aggregation)
// ride the same blocked, parallel, trace-canonical engine as the join
// pipeline's own passes.
func (c *Config) ScanStore(st table.Store, reverse bool, fn func(i int, e *table.Entry)) {
	n := st.Len()
	if n == 0 {
		return
	}
	nb := (n + scanBlock - 1) / scanBlock
	lanes := c.workerCount()
	if lanes > nb {
		lanes = nb
	}
	var sh bitonic.Sharder
	if lanes > 1 {
		sh, _ = st.(bitonic.Sharder)
	}
	if sh == nil {
		c.scanSequential(st, n, nb, reverse, fn)
		return
	}
	if !c.scanParallel(sh, st, n, nb, lanes, reverse, fn) {
		c.scanSequential(st, n, nb, reverse, fn)
	}
}

// blockBounds returns the canonical index range of block k.
func blockBounds(k, n int) (lo, hi int) {
	lo = k * scanBlock
	hi = lo + scanBlock
	if hi > n {
		hi = n
	}
	return lo, hi
}

// applyBlock runs fn over one buffered block in logical order. blk is
// the entries of [lo, hi); the carry state lives in fn's closure.
func applyBlock(blk []table.Entry, lo int, reverse bool, fn func(i int, e *table.Entry)) {
	if reverse {
		for k := len(blk) - 1; k >= 0; k-- {
			fn(lo+k, &blk[k])
		}
	} else {
		for k := range blk {
			fn(lo+k, &blk[k])
		}
	}
}

// scanSequential is the direct path: one block of protected memory,
// blocks visited in canonical order (ascending; descending when
// reverse), each read, transformed and written back before the next.
// The cancellation probe runs at block boundaries — between a block's
// write-back and the next block's read — so an abort never tears a
// block access.
func (c *Config) scanSequential(st table.Store, n, nb int, reverse bool, fn func(i int, e *table.Entry)) {
	check := c.checkFn()
	var buf [scanBlock]table.Entry
	for b := 0; b < nb; b++ {
		if check != nil && b > 0 {
			check()
		}
		k := b
		if reverse {
			k = nb - 1 - b
		}
		lo, hi := blockBounds(k, n)
		blk := buf[:hi-lo]
		loadRange(st, lo, blk)
		applyBlock(blk, lo, reverse, fn)
		storeRange(st, lo, blk)
	}
}

// scanParallel buffers the whole table, running the per-block reads
// and writes across worker lanes with the carry pass in between. Each
// block's events land in that block's own shard buffers, replayed in
// canonical order (read-run then write-run per block) at the end, so
// the recorded trace matches scanSequential exactly. Returns false
// when the store refuses to shard (the caller falls back to the
// sequential path).
func (c *Config) scanParallel(sh bitonic.Sharder, st table.Store, n, nb, lanes int, reverse bool, fn func(i int, e *table.Entry)) bool {
	traced := sh.Traced()
	all := make([]table.Entry, n)
	rbufs := make([]*trace.Buffer, nb)
	wbufs := make([]*trace.Buffer, nb)

	// mustShard wraps Shard for use past the up-front probe:
	// shardability of the in-tree stores is static, so a mid-scan
	// refusal is a programming error, not a recoverable condition
	// (recovering would leave a partial, non-canonical trace).
	mustShard := func(rec trace.Recorder) table.Store {
		res := sh.Shard(rec)
		if res == nil {
			panic("core: store refused to shard mid-scan")
		}
		return res.(table.Store)
	}

	// sweep runs one phase (read or write) of every block across the
	// lanes: lane w handles a contiguous span of blocks in order.
	sweep := func(bufs []*trace.Buffer, write bool) {
		fns := make([]func(), lanes)
		span := (nb + lanes - 1) / lanes
		for w := 0; w < lanes; w++ {
			b0 := w * span
			b1 := b0 + span
			if b1 > nb {
				b1 = nb
			}
			fns[w] = func() {
				// One untraced shard serves the whole lane; traced
				// blocks each get a shard aliased to their own buffer.
				var laneStore table.Store
				if !traced {
					laneStore = mustShard(nil)
				}
				for b := b0; b < b1; b++ {
					target := laneStore
					if traced {
						bufs[b] = &trace.Buffer{}
						target = mustShard(bufs[b])
					}
					lo, hi := blockBounds(b, n)
					if write {
						storeRange(target, lo, all[lo:hi])
					} else {
						loadRange(target, lo, all[lo:hi])
					}
				}
			}
		}
		bitonic.RunTasks(fns)
	}

	// Probe shardability once before doing any work, so a refusal
	// (cost model attached) falls back before any access happens.
	if probe := sh.Shard(nil); probe == nil {
		return false
	}
	// Cancellation probes run at the phase barriers (before the read
	// sweep, between the sweeps, before the write sweep) on the
	// coordinating goroutine — never inside a lane — so an abort
	// leaves no lane mid-access and no event shard half-replayed.
	check := c.checkFn()
	if check != nil {
		check()
	}
	sweep(rbufs, false)
	if check != nil {
		check()
	}
	if reverse {
		for i := n - 1; i >= 0; i-- {
			fn(i, &all[i])
		}
	} else {
		for i := 0; i < n; i++ {
			fn(i, &all[i])
		}
	}
	if check != nil {
		check()
	}
	sweep(wbufs, true)
	if traced {
		rec := sh.Recorder()
		for b := 0; b < nb; b++ {
			k := b
			if reverse {
				k = nb - 1 - b
			}
			rbufs[k].ReplayTo(rec)
			wbufs[k].ReplayTo(rec)
		}
	}
	return true
}

// loadRange reads [lo, lo+len(dst)) of st into dst in blocks of at
// most scanBlock (bounding the sealed store's ciphertext scratch).
func loadRange(st table.Store, lo int, dst []table.Entry) {
	for off := 0; off < len(dst); off += scanBlock {
		end := min(off+scanBlock, len(dst))
		st.GetRange(lo+off, dst[off:end])
	}
}

// storeRange writes src over [lo, lo+len(src)) of st in blocks of at
// most scanBlock.
func storeRange(st table.Store, lo int, src []table.Entry) {
	for off := 0; off < len(src); off += scanBlock {
		end := min(off+scanBlock, len(src))
		st.SetRange(lo+off, src[off:end])
	}
}
