// Package trace records the public-memory access pattern of an execution.
//
// In the adversarial model of Krastnikov et al. (§3.1), the server observes
// every read and write to public memory but learns nothing about the cell
// contents. An algorithm is oblivious (level II) when the *sequence* of
// (operation, array, index) events is identical for all inputs of the same
// size producing outputs of the same size. This package provides:
//
//   - Event and Op: one observed access;
//   - Recorder: an interface implemented by a full in-memory Log (exact
//     comparison, small n), a streaming hash Hasher (compressing the
//     whole access sequence into one digest, large n), and a Counter;
//   - rendering of a Log as a time×address bitmap, reproducing Figure 7.
//
// # Canonical trace hash
//
// The canonical hash of an access sequence e_1 … e_N is defined as
//
//	H = SHA-256( enc(e_1) ‖ enc(e_2) ‖ … ‖ enc(e_N) )
//	enc(e) = BE32(array) ‖ byte(op) ‖ BE64(index)        (13 bytes)
//
// i.e. one SHA-256 stream over the fixed-width big-endian encodings of
// the events, in order. Because every encoding has the same width, the
// byte stream determines the event sequence uniquely, so (up to SHA-256
// collisions) two executions have equal digests iff they produced
// identical access sequences — the same guarantee as the paper's
// chained H ← h(H‖r‖t‖i) construction (§3.1), at 13 bytes of
// compression input per event instead of a full 64-byte compression
// per event. This streamed definition (v2) supersedes the per-event
// chained definition the repository used previously; digests are not
// comparable across the two. All verification in this repository
// compares digests between runs of the same build, never against
// stored constants, so the definition may evolve — but it must change
// everywhere at once, and it must be identical for plain, sealed and
// block-sealed executions. Hasher is the single implementation;
// nothing else may hash events.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"strings"
)

// Op distinguishes reads from writes, the `t` bit in the paper's hash.
type Op uint8

const (
	// Read is an observed load from public memory.
	Read Op = 0
	// Write is an observed store to public memory.
	Write Op = 1
)

// String returns "R" or "W".
func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Event is a single observed access: operation o to index Index of the
// array identified by Array (the `r` tag in the paper's hash).
type Event struct {
	Op    Op
	Array uint32
	Index uint64
}

// String formats the event as e.g. "R a0[17]".
func (e Event) String() string {
	return fmt.Sprintf("%s a%d[%d]", e.Op, e.Array, e.Index)
}

// Recorder receives the access stream of an execution.
type Recorder interface {
	// Record observes one access.
	Record(e Event)
}

// RunRecorder is an optional Recorder extension for the most common
// event shape on hot paths: a contiguous run of n same-operation
// accesses to one array at ascending indices lo, lo+1, …, lo+n-1.
// RecordRun folds such a run with a single dynamic dispatch and no
// materialized event slice; it must be semantically identical to
// calling Record on each event in order. The batched range accesses of
// internal/memory emit through this interface.
type RunRecorder interface {
	RecordRun(op Op, array uint32, lo uint64, n int)
}

// RecordRunTo folds an ascending same-op run into r, using RecordRun
// when implemented and falling back to per-event Record.
func RecordRunTo(r Recorder, op Op, array uint32, lo uint64, n int) {
	if rr, ok := r.(RunRecorder); ok {
		rr.RecordRun(op, array, lo, n)
		return
	}
	for k := 0; k < n; k++ {
		r.Record(Event{Op: op, Array: array, Index: lo + uint64(k)})
	}
}

// Nop is a Recorder that discards all events; used on hot paths when no
// verification is requested.
type Nop struct{}

// Record implements Recorder by doing nothing.
func (Nop) Record(Event) {}

// RecordRun implements RunRecorder by doing nothing.
func (Nop) RecordRun(Op, uint32, uint64, int) {}

// Log stores the complete event sequence in memory for exact comparison
// and rendering. Only suitable for small executions.
type Log struct {
	Events []Event
}

// NewLog returns an empty Log.
func NewLog() *Log { return &Log{} }

// Record appends the event.
func (l *Log) Record(e Event) { l.Events = append(l.Events, e) }

// RecordRun appends an ascending same-op run.
func (l *Log) RecordRun(op Op, array uint32, lo uint64, n int) {
	for k := 0; k < n; k++ {
		l.Events = append(l.Events, Event{Op: op, Array: array, Index: lo + uint64(k)})
	}
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.Events) }

// Equal reports whether two logs contain identical event sequences.
func (l *Log) Equal(o *Log) bool {
	if len(l.Events) != len(o.Events) {
		return false
	}
	for i := range l.Events {
		if l.Events[i] != o.Events[i] {
			return false
		}
	}
	return true
}

// FirstDivergence returns the index of the first differing event between
// two logs, or -1 if one is a prefix of the other or they are equal.
// It is a debugging aid for obliviousness failures.
func (l *Log) FirstDivergence(o *Log) int {
	n := len(l.Events)
	if len(o.Events) < n {
		n = len(o.Events)
	}
	for i := 0; i < n; i++ {
		if l.Events[i] != o.Events[i] {
			return i
		}
	}
	return -1
}

// eventEncSize is the width of one canonical event encoding:
// BE32(array) ‖ byte(op) ‖ BE64(index).
const eventEncSize = 4 + 1 + 8

// Hasher computes the canonical trace hash (see the package comment):
// one incremental SHA-256 stream fed the fixed 13-byte encoding of each
// event. Encodings accumulate in an internal buffer and are flushed to
// the hash in ~3 KiB writes, so recording costs a 13-byte copy per
// event plus 13/64 of a SHA-256 compression amortized — no allocation,
// no per-event compression. Two executions are (with overwhelming
// probability) trace-equal iff their final digests match.
type Hasher struct {
	h    hash.Hash
	n    uint64
	fill int
	buf  [eventEncSize * 248]byte
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

func (s *Hasher) flush() {
	if s.fill > 0 {
		if s.h == nil { // zero-value Hasher
			s.h = sha256.New()
		}
		s.h.Write(s.buf[:s.fill])
		s.fill = 0
	}
}

// put buffers the canonical encoding of one event — the single
// definition of enc(e); every Record variant funnels through it.
func (s *Hasher) put(op Op, array uint32, index uint64) {
	if s.fill == len(s.buf) {
		s.flush()
	}
	b := s.buf[s.fill : s.fill+eventEncSize]
	binary.BigEndian.PutUint32(b, array)
	b[4] = byte(op)
	binary.BigEndian.PutUint64(b[5:], index)
	s.fill += eventEncSize
}

// Record folds one event into the digest.
func (s *Hasher) Record(e Event) {
	s.put(e.Op, e.Array, e.Index)
	s.n++
}

// RecordRun folds an ascending same-op run into the digest: the
// encodings are synthesized straight into the internal buffer, without
// interface dispatch or a materialized event slice.
func (s *Hasher) RecordRun(op Op, array uint32, lo uint64, n int) {
	for k := 0; k < n; k++ {
		s.put(op, array, lo+uint64(k))
	}
	s.n += uint64(n)
}

// Sum returns the digest of the events recorded so far. The stream is
// not finalized: recording may continue after a Sum, and repeated Sums
// without intervening Records return the same digest.
func (s *Hasher) Sum() [sha256.Size]byte {
	s.flush()
	var out [sha256.Size]byte
	if s.h == nil {
		s.h = sha256.New()
	}
	s.h.Sum(out[:0])
	return out
}

// Hex returns the current digest as a hex string.
func (s *Hasher) Hex() string {
	sum := s.Sum()
	return fmt.Sprintf("%x", sum)
}

// Count returns the number of events folded so far. Two oblivious runs
// must agree on this as well as on the digest.
func (s *Hasher) Count() uint64 { return s.n }

// Counter tallies reads and writes without storing them; it is used for
// the operation-count columns of Table 3.
type Counter struct {
	Reads  uint64
	Writes uint64
}

// Record increments the matching tally.
func (c *Counter) Record(e Event) {
	if e.Op == Read {
		c.Reads++
	} else {
		c.Writes++
	}
}

// RecordRun tallies an ascending same-op run in constant time.
func (c *Counter) RecordRun(op Op, _ uint32, _ uint64, n int) {
	if op == Read {
		c.Reads += uint64(n)
	} else {
		c.Writes += uint64(n)
	}
}

// Total returns reads + writes.
func (c *Counter) Total() uint64 { return c.Reads + c.Writes }

// Summary aggregates an event stream per array: how many reads and
// writes each array received and its touched extent. It feeds the
// space-usage analysis of §6.2 (total public memory is the sum of array
// extents).
type Summary struct {
	PerArray map[uint32]*ArrayStats
}

// ArrayStats is the per-array aggregate.
type ArrayStats struct {
	Reads  uint64
	Writes uint64
	Extent uint64 // max touched index + 1
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{PerArray: map[uint32]*ArrayStats{}}
}

// Record implements Recorder.
func (s *Summary) Record(e Event) {
	st, ok := s.PerArray[e.Array]
	if !ok {
		st = &ArrayStats{}
		s.PerArray[e.Array] = st
	}
	if e.Op == Read {
		st.Reads++
	} else {
		st.Writes++
	}
	if e.Index+1 > st.Extent {
		st.Extent = e.Index + 1
	}
}

// TotalExtent sums the touched extents of all arrays — the total public
// memory footprint in entries.
func (s *Summary) TotalExtent() uint64 {
	var t uint64
	for _, st := range s.PerArray {
		t += st.Extent
	}
	return t
}

// Tee duplicates the event stream to several recorders.
type Tee struct {
	Recorders []Recorder
}

// NewTee returns a Recorder forwarding to all rs.
func NewTee(rs ...Recorder) *Tee { return &Tee{Recorders: rs} }

// Record forwards e to every underlying recorder.
func (t *Tee) Record(e Event) {
	for _, r := range t.Recorders {
		r.Record(e)
	}
}

// Render draws the log as a time×address ASCII bitmap in the style of the
// paper's Figure 7: the horizontal axis is (discretized) time, the
// vertical axis is the global memory index, '.' denotes no access in the
// bucket, 'r' a read, 'W' a write (writes shade darker and win ties).
// Array a's index i is drawn at offset base[a]+i, where bases stack the
// arrays in first-appearance order. width and height bound the bitmap.
func (l *Log) Render(width, height int) string {
	if len(l.Events) == 0 {
		return "(empty trace)\n"
	}
	if width <= 0 {
		width = 80
	}
	if height <= 0 {
		height = 24
	}
	// Assign each array a vertical base offset, stacked in order of first
	// appearance, and find the total address-space height.
	bases := map[uint32]uint64{}
	var next uint64
	extent := map[uint32]uint64{}
	for _, e := range l.Events {
		if e.Index+1 > extent[e.Array] {
			extent[e.Array] = e.Index + 1
		}
	}
	seen := map[uint32]bool{}
	for _, e := range l.Events {
		if !seen[e.Array] {
			seen[e.Array] = true
			bases[e.Array] = next
			next += extent[e.Array]
		}
	}
	total := next
	if total == 0 {
		total = 1
	}

	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", width))
	}
	for t, e := range l.Events {
		x := t * width / len(l.Events)
		addr := bases[e.Array] + e.Index
		y := int(addr * uint64(height) / total)
		if y >= height {
			y = height - 1
		}
		c := byte('r')
		if e.Op == Write {
			c = 'W'
		}
		// Writes dominate reads within a bucket.
		if grid[y][x] != 'W' {
			grid[y][x] = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "memory access pattern: %d events, %d cells (time →, address ↓)\n",
		len(l.Events), total)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderPGM emits the log as a binary-less plain PGM (P2) grayscale image,
// suitable for saving to disk and viewing: background white, reads gray,
// writes black — matching the light/dark shading of Figure 7.
func (l *Log) RenderPGM(width, height int) string {
	if width <= 0 {
		width = 512
	}
	if height <= 0 {
		height = 256
	}
	const (
		bg    = 255
		read  = 170
		write = 0
	)
	img := make([][]int, height)
	for y := range img {
		img[y] = make([]int, width)
		for x := range img[y] {
			img[y][x] = bg
		}
	}
	if len(l.Events) > 0 {
		var total uint64
		bases := map[uint32]uint64{}
		extent := map[uint32]uint64{}
		for _, e := range l.Events {
			if e.Index+1 > extent[e.Array] {
				extent[e.Array] = e.Index + 1
			}
		}
		seen := map[uint32]bool{}
		for _, e := range l.Events {
			if !seen[e.Array] {
				seen[e.Array] = true
				bases[e.Array] = total
				total += extent[e.Array]
			}
		}
		if total == 0 {
			total = 1
		}
		for t, e := range l.Events {
			x := t * width / len(l.Events)
			addr := bases[e.Array] + e.Index
			y := int(addr * uint64(height) / total)
			if y >= height {
				y = height - 1
			}
			v := read
			if e.Op == Write {
				v = write
			}
			if v < img[y][x] {
				img[y][x] = v
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", width, height)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if x > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", img[y][x])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
