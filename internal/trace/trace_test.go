package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatalf("Op.String wrong: %q %q", Read, Write)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Op: Write, Array: 3, Index: 42}
	if got := e.String(); got != "W a3[42]" {
		t.Fatalf("Event.String() = %q", got)
	}
}

func TestLogEqual(t *testing.T) {
	a, b := NewLog(), NewLog()
	events := []Event{
		{Read, 0, 1}, {Write, 0, 1}, {Read, 1, 0},
	}
	for _, e := range events {
		a.Record(e)
		b.Record(e)
	}
	if !a.Equal(b) {
		t.Fatal("identical logs not equal")
	}
	b.Record(Event{Read, 0, 2})
	if a.Equal(b) {
		t.Fatal("different-length logs reported equal")
	}
	a.Record(Event{Write, 0, 2})
	if a.Equal(b) {
		t.Fatal("diverging logs reported equal")
	}
	if got := a.FirstDivergence(b); got != 3 {
		t.Fatalf("FirstDivergence = %d, want 3", got)
	}
}

func TestFirstDivergencePrefix(t *testing.T) {
	a, b := NewLog(), NewLog()
	a.Record(Event{Read, 0, 0})
	if got := a.FirstDivergence(b); got != -1 {
		t.Fatalf("FirstDivergence on prefix = %d, want -1", got)
	}
}

func TestHasherMatchesOnEqualStreams(t *testing.T) {
	f := func(evs []uint16) bool {
		h1, h2 := NewHasher(), NewHasher()
		for _, v := range evs {
			e := Event{Op: Op(v & 1), Array: uint32(v >> 8), Index: uint64(v)}
			h1.Record(e)
			h2.Record(e)
		}
		return h1.Sum() == h2.Sum() && h1.Count() == h2.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasherDistinguishes(t *testing.T) {
	h1, h2 := NewHasher(), NewHasher()
	h1.Record(Event{Read, 0, 5})
	h2.Record(Event{Write, 0, 5})
	if h1.Sum() == h2.Sum() {
		t.Fatal("hash collision between read and write")
	}
	h3, h4 := NewHasher(), NewHasher()
	h3.Record(Event{Read, 0, 5})
	h4.Record(Event{Read, 1, 5})
	if h3.Sum() == h4.Sum() {
		t.Fatal("hash collision between arrays")
	}
	h5, h6 := NewHasher(), NewHasher()
	h5.Record(Event{Read, 0, 5})
	h6.Record(Event{Read, 0, 6})
	if h5.Sum() == h6.Sum() {
		t.Fatal("hash collision between indices")
	}
}

func TestHasherOrderSensitive(t *testing.T) {
	h1, h2 := NewHasher(), NewHasher()
	a := Event{Read, 0, 1}
	b := Event{Read, 0, 2}
	h1.Record(a)
	h1.Record(b)
	h2.Record(b)
	h2.Record(a)
	if h1.Sum() == h2.Sum() {
		t.Fatal("hash insensitive to event order")
	}
}

// TestHasherBatchAndRunMatchRecord pins the core invariant of the
// canonical hash: RecordRun must produce exactly the digest (and count)
// of the equivalent per-event Record sequence, including across the
// internal buffer's flush boundary.
func TestHasherBatchAndRunMatchRecord(t *testing.T) {
	const n = 1000 // larger than the internal buffer's 248-event capacity
	run, loop := NewHasher(), NewHasher()
	run.RecordRun(Write, 3, 100, n)
	for k := 0; k < n; k++ {
		loop.Record(Event{Op: Write, Array: 3, Index: 100 + uint64(k)})
	}
	if run.Sum() != loop.Sum() || run.Count() != loop.Count() {
		t.Fatal("RecordRun diverges from per-event Record")
	}
}

// TestHasherSumIsResumable: Sum must report the running digest without
// finalizing the stream — recording may continue, and repeated Sums
// agree with a fresh hasher fed the same prefix.
func TestHasherSumIsResumable(t *testing.T) {
	a, b := NewHasher(), NewHasher()
	e1 := Event{Read, 0, 1}
	e2 := Event{Write, 1, 2}
	a.Record(e1)
	mid := a.Sum()
	if mid != a.Sum() {
		t.Fatal("repeated Sum changed the digest")
	}
	a.Record(e2)
	b.Record(e1)
	b.Record(e2)
	if a.Sum() != b.Sum() {
		t.Fatal("recording after Sum diverged from an uninterrupted stream")
	}
}

// recordOnly is a recorder without RecordRun.
type recordOnly []Event

func (r *recordOnly) Record(e Event) { *r = append(*r, e) }

// TestRecordRunToFallback: recorders without RecordRun receive the
// equivalent per-event sequence.
func TestRecordRunToFallback(t *testing.T) {
	var s recordOnly
	RecordRunTo(&s, Write, 2, 5, 3)
	if len(s) != 3 || s[0] != (Event{Write, 2, 5}) || s[2] != (Event{Write, 2, 7}) {
		t.Fatalf("fallback run mis-recorded: %+v", s)
	}
	var c Counter
	RecordRunTo(&c, Read, 0, 0, 4)
	if c.Reads != 4 {
		t.Fatalf("Counter.RecordRun: %+v", c)
	}
	l := NewLog()
	RecordRunTo(l, Read, 1, 10, 2)
	want := []Event{{Read, 1, 10}, {Read, 1, 11}}
	if len(l.Events) != 2 || l.Events[0] != want[0] || l.Events[1] != want[1] {
		t.Fatalf("Log.RecordRun: %+v", l.Events)
	}
}

// TestHasherAllocFree: the streamed hasher must not allocate per event
// (or per run) in steady state.
func TestHasherAllocFree(t *testing.T) {
	h := NewHasher()
	h.RecordRun(Read, 2, 0, 300) // warm-up, crosses a flush
	if avg := testing.AllocsPerRun(50, func() { h.Record(Event{Write, 1, 9}) }); avg != 0 {
		t.Errorf("Record: %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { h.RecordRun(Read, 2, 0, 300) }); avg != 0 {
		t.Errorf("RecordRun: %.1f allocs/op, want 0", avg)
	}
}

func TestHasherZeroValueUsable(t *testing.T) {
	var h Hasher
	h.Record(Event{Read, 0, 0})
	ref := NewHasher()
	ref.Record(Event{Read, 0, 0})
	if h.Sum() != ref.Sum() {
		t.Fatal("zero-value Hasher diverges from NewHasher")
	}
}

func TestHasherHexLength(t *testing.T) {
	h := NewHasher()
	h.Record(Event{Write, 2, 9})
	if len(h.Hex()) != 64 {
		t.Fatalf("Hex length = %d, want 64", len(h.Hex()))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Record(Event{Read, 0, 0})
	c.Record(Event{Read, 0, 1})
	c.Record(Event{Write, 0, 0})
	if c.Reads != 2 || c.Writes != 1 || c.Total() != 3 {
		t.Fatalf("Counter = %+v", c)
	}
}

func TestNop(t *testing.T) {
	var n Nop
	n.Record(Event{Read, 0, 0}) // must not panic
}

func TestRenderEmpty(t *testing.T) {
	l := NewLog()
	if got := l.Render(10, 4); !strings.Contains(got, "empty") {
		t.Fatalf("Render empty = %q", got)
	}
}

func TestRenderShape(t *testing.T) {
	l := NewLog()
	for i := 0; i < 100; i++ {
		l.Record(Event{Op(i & 1), 0, uint64(i % 10)})
	}
	out := l.Render(40, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("Render produced %d lines, want 9", len(lines))
	}
	for _, ln := range lines[1:] {
		if len(ln) != 40 {
			t.Fatalf("row width %d, want 40", len(ln))
		}
	}
	if !strings.Contains(out, "W") || !strings.Contains(out, "r") {
		t.Fatal("Render missing read/write marks")
	}
}

func TestRenderMultipleArrays(t *testing.T) {
	l := NewLog()
	l.Record(Event{Read, 0, 0})
	l.Record(Event{Read, 1, 0})
	l.Record(Event{Write, 1, 3})
	out := l.Render(10, 6)
	// Array 0 spans 1 cell (max index 0), array 1 spans 4 (max index 3).
	if !strings.Contains(out, "5 cells") {
		t.Fatalf("expected combined 6-cell address space, got:\n%s", out)
	}
}

func BenchmarkHasherRecord(b *testing.B) {
	h := NewHasher()
	e := Event{Write, 1, 123456}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(e)
	}
}

func BenchmarkHasherRecordRun(b *testing.B) {
	h := NewHasher()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.RecordRun(Read, 1, 0, 512)
	}
	b.ReportMetric(float64(b.N)*512/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
