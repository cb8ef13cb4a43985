package core

import "oblivjoin/internal/table"

// This file is the execution engine for the pipeline's linear passes
// (Fill-Dimensions, the expansion prefix sum and fill-down, the
// alignment indexing). A pass is a carry scan: it visits every entry
// once, in index order, threading a constant-size protected state. The
// engine executes a pass block by block — read a block as one batched
// range, apply the carry function over the buffered block in logical
// order (identical code to the naive loop, so the semantics cannot
// drift), write the block back — so the observable access pattern is
// "R-run(block), W-run(block)" per block in canonical block order, a
// fixed function of n, and the protected working set is one block.
// (The paper's formulation interleaves the read and write per index;
// either pattern is input-independent, and the block form is what
// makes batching possible.)

// scanBlock is the number of entries per block: the unit of batched
// range access, of the canonical trace's run structure, and of the
// working set. A fixed constant, so the trace is a function of n alone.
const scanBlock = 4096

// ScanStore applies fn to every entry of st exactly once, in ascending
// index order (descending when reverse), with one read and one write
// per index. fn may mutate the entry in place; the index passed is the
// entry's position in st. Exported so the relational operators'
// carry scans (filter flagging, duplicate marking, group aggregation)
// ride the same blocked, trace-canonical engine as the join pipeline's
// own passes.
//
// Blocks are visited in canonical order (ascending; descending when
// reverse), each read, transformed and written back before the next.
// The cancellation probe runs at block boundaries — between a block's
// write-back and the next block's read — so an abort never tears a
// block access.
func (c *Config) ScanStore(st table.Store, reverse bool, fn func(i int, e *table.Entry)) {
	n := st.Len()
	nb := (n + scanBlock - 1) / scanBlock
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
		lo := k * scanBlock
		blk := buf[:min(scanBlock, n-lo)]
		st.GetRange(lo, blk)
		// fn runs over the buffered block in logical order; the carry
		// state lives in its closure.
		if reverse {
			for i := len(blk) - 1; i >= 0; i-- {
				fn(lo+i, &blk[i])
			}
		} else {
			for i := range blk {
				fn(lo+i, &blk[i])
			}
		}
		st.SetRange(lo, blk)
	}
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
