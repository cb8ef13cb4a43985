package trace

// RunBuffer is a Recorder that stores its event stream as a sequence of
// ascending same-op runs instead of individual events. The executor
// uses it to defer a stage's store writes out of the hot path:
// while a barrier operator fills its store batch-by-batch from an
// upstream drain, the fill's write events land here (one run record per
// batched range write, 24 bytes), and ReplayTo emits them into the real
// recorder once the drain is finished — restoring the canonical
// "all upstream reads, then all downstream writes" order. Memory stays
// proportional to the number of batches, not the number of events.
type RunBuffer struct {
	runs []eventRun
}

type eventRun struct {
	op    Op
	array uint32
	lo    uint64
	n     int
}

// push extends the last run when e continues it, else appends a new one.
func (b *RunBuffer) push(op Op, array uint32, lo uint64, n int) {
	if n <= 0 {
		return
	}
	if k := len(b.runs); k > 0 {
		last := &b.runs[k-1]
		if last.op == op && last.array == array && last.lo+uint64(last.n) == lo {
			last.n += n
			return
		}
	}
	b.runs = append(b.runs, eventRun{op: op, array: array, lo: lo, n: n})
}

// Record appends one event.
func (b *RunBuffer) Record(e Event) { b.push(e.Op, e.Array, e.Index, 1) }

// RecordBatch appends a run of events.
func (b *RunBuffer) RecordBatch(evs []Event) {
	for _, e := range evs {
		b.push(e.Op, e.Array, e.Index, 1)
	}
}

// RecordRun appends an ascending same-op run in constant space.
func (b *RunBuffer) RecordRun(op Op, array uint32, lo uint64, n int) {
	b.push(op, array, lo, n)
}

// Len returns the number of buffered events (not runs).
func (b *RunBuffer) Len() int {
	var t int
	for _, r := range b.runs {
		t += r.n
	}
	return t
}

// Reset empties the buffer, keeping capacity.
func (b *RunBuffer) Reset() { b.runs = b.runs[:0] }

// ReplayTo drains the buffered runs into r in order and resets the
// buffer. Replaying through RecordRunTo keeps the canonical encoding
// identical to having recorded each event directly.
func (b *RunBuffer) ReplayTo(r Recorder) {
	for _, run := range b.runs {
		RecordRunTo(r, run.op, run.array, run.lo, run.n)
	}
	b.Reset()
}
