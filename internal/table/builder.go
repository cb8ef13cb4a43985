package table

import (
	"fmt"

	"oblivjoin/internal/trace"
)

// sharded is the structural capability the traced stores share (it
// mirrors bitonic.Sharder without importing it): access to the store's
// recorder and trace-redirected aliases.
type sharded interface {
	Traced() bool
	Recorder() trace.Recorder
	Shard(rec trace.Recorder) any
}

// Builder fills a store front-to-back from row or entry batches — the
// batch-granular append API the executor loads barrier operators
// through, so upstream batches land in the store without an
// intermediate whole-relation copy.
//
// Appends go through SetRange, emitting exactly the ascending per-entry
// write events of the equivalent element loop. When the store is traced,
// the builder writes through a trace shard recording into a compact
// RunBuffer and Flush replays the buffered writes into the real
// recorder: a fill interleaves upstream drain reads with its own writes
// in time, but the recorded canonical order stays "all upstream reads,
// then all fill writes" — the collect-then-load order the v2 canonical
// trace, and every hash pinned on it, was defined with. Run-length
// buffering keeps the deferred trace proportional to the number of
// batches.
type Builder struct {
	st      Store
	w       Store // write target: trace-deferred shard, or st itself
	rec     trace.Recorder
	buf     trace.RunBuffer
	pos     int
	scratch []Entry
}

// NewBuilder returns a builder positioned at entry 0 of st.
func NewBuilder(st Store) *Builder {
	b := &Builder{st: st, w: st}
	if sh, ok := st.(sharded); ok && sh.Traced() {
		if shard, ok := sh.Shard(&b.buf).(Store); ok && shard != nil {
			b.w = shard
			b.rec = sh.Recorder()
		}
	}
	return b
}

// builderChunk bounds one physical range write (and the row-encoding
// scratch), in entries; larger appends split into ascending chunks,
// which emit the same per-entry event sequence.
const builderChunk = 4096

// AppendEntries writes src at the cursor and advances it.
func (b *Builder) AppendEntries(src []Entry) {
	if b.pos+len(src) > b.st.Len() {
		panic(fmt.Sprintf("table: Builder append overflows store: %d+%d > %d",
			b.pos, len(src), b.st.Len()))
	}
	for lo := 0; lo < len(src); lo += builderChunk {
		chunk := src[lo:min(lo+builderChunk, len(src))]
		b.w.SetRange(b.pos, chunk)
		b.pos += len(chunk)
	}
}

// AppendRows encodes rows as entries tagged with tid and appends them.
func (b *Builder) AppendRows(rows []Row, tid uint64) {
	if len(b.scratch) == 0 {
		b.scratch = make([]Entry, min(builderChunk, max(len(rows), 1)))
	}
	for len(rows) > 0 {
		k := min(len(rows), len(b.scratch))
		for i, r := range rows[:k] {
			b.scratch[i] = Entry{J: r.J, D: r.D, TID: tid}
		}
		b.AppendEntries(b.scratch[:k])
		rows = rows[k:]
	}
}

// Pos returns the number of entries appended so far.
func (b *Builder) Pos() int { return b.pos }

// Flush replays the deferred write events into the store's recorder in
// canonical order. Call once after the final append, before anything
// reads the store; without a trace it is free.
func (b *Builder) Flush() {
	if b.rec != nil {
		b.buf.ReplayTo(b.rec)
	}
}
