package memory

import (
	"testing"
	"time"

	"oblivjoin/internal/trace"
)

func TestArrayGetSetRecordsEvents(t *testing.T) {
	log := trace.NewLog()
	s := NewSpace(log, nil)
	a := Alloc[int](s, 4, 8)
	a.Set(2, 99)
	if got := a.Get(2); got != 99 {
		t.Fatalf("Get(2) = %d, want 99", got)
	}
	want := []trace.Event{
		{Op: trace.Write, Array: a.ID(), Index: 2},
		{Op: trace.Read, Array: a.ID(), Index: 2},
	}
	if log.Len() != 2 || log.Events[0] != want[0] || log.Events[1] != want[1] {
		t.Fatalf("events = %v, want %v", log.Events, want)
	}
}

func TestArrayIDsDistinct(t *testing.T) {
	s := NewSpace(nil, nil)
	a := Alloc[int](s, 1, 8)
	b := Alloc[int](s, 1, 8)
	if a.ID() == b.ID() {
		t.Fatal("arrays share an ID")
	}
}

func TestFromSliceSharesBacking(t *testing.T) {
	s := NewSpace(nil, nil)
	data := []int{1, 2, 3}
	a := FromSlice(s, data, 8)
	a.Set(0, 42)
	if data[0] != 42 {
		t.Fatal("FromSlice copied instead of wrapping")
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
}

func TestNilRecorderDefaultsToNop(t *testing.T) {
	s := NewSpace(nil, nil)
	a := Alloc[int](s, 1, 8)
	a.Set(0, 1) // must not panic
	if s.Recorder() == nil {
		t.Fatal("Recorder() is nil")
	}
}

func TestCostModelAccessCost(t *testing.T) {
	cm := &CostModel{AccessCost: 10 * time.Nanosecond}
	s := NewSpace(nil, cm)
	a := Alloc[int](s, 10, 8)
	for i := 0; i < 10; i++ {
		a.Set(i, i)
	}
	if cm.Accesses != 10 {
		t.Fatalf("Accesses = %d, want 10", cm.Accesses)
	}
	if cm.Elapsed != 100*time.Nanosecond {
		t.Fatalf("Elapsed = %v, want 100ns", cm.Elapsed)
	}
	if cm.Faults != 0 {
		t.Fatalf("Faults = %d with no EPC limit", cm.Faults)
	}
}

func TestCostModelFaultsWhenExceedingEPC(t *testing.T) {
	// EPC of 2 pages; touching 3 distinct pages repeatedly must fault.
	cm := &CostModel{
		PageSize: 64, EPCBytes: 128,
		AccessCost: time.Nanosecond, MissCost: time.Microsecond,
	}
	s := NewSpace(nil, cm)
	a := Alloc[byte](s, 3*64, 1)
	for pass := 0; pass < 4; pass++ {
		for page := 0; page < 3; page++ {
			a.Get(page * 64)
		}
	}
	if cm.Faults == 0 {
		t.Fatal("expected page faults when working set exceeds EPC")
	}
	if cm.Elapsed <= time.Duration(cm.Accesses)*cm.AccessCost {
		t.Fatal("fault penalty not charged")
	}
}

func TestCostModelNoFaultsWithinEPC(t *testing.T) {
	cm := &CostModel{
		PageSize: 64, EPCBytes: 1024,
		AccessCost: time.Nanosecond, MissCost: time.Microsecond,
	}
	s := NewSpace(nil, cm)
	a := Alloc[byte](s, 256, 1)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 256; i++ {
			a.Get(i)
		}
	}
	if cm.Faults != 0 {
		t.Fatalf("Faults = %d, want 0 (4 pages fit in 16-page EPC)", cm.Faults)
	}
}

func TestCostModelElementStraddlingPages(t *testing.T) {
	cm := &CostModel{PageSize: 64, EPCBytes: 64, AccessCost: 0, MissCost: time.Microsecond}
	s := NewSpace(nil, cm)
	// 48-byte elements: element 1 spans bytes 48..95, straddling pages 0 and 1.
	a := Alloc[[48]byte](s, 4, 48)
	a.Get(1)
	// Two pages touched with a 1-page EPC → at least one fault.
	if cm.Faults == 0 {
		t.Fatal("straddling access did not fault a 1-page EPC")
	}
}

func TestCostModelReset(t *testing.T) {
	cm := DefaultSGX()
	s := NewSpace(nil, cm)
	a := Alloc[int](s, 8, 8)
	a.Get(0)
	cm.Reset()
	if cm.Accesses != 0 || cm.Elapsed != 0 || cm.Faults != 0 {
		t.Fatalf("Reset left stats: %+v", cm)
	}
	a.Get(0)
	if cm.Accesses != 1 {
		t.Fatal("cost model unusable after Reset")
	}
}

func TestDefaultSGXParameters(t *testing.T) {
	cm := DefaultSGX()
	if cm.EPCBytes != 93<<20 {
		t.Fatalf("EPCBytes = %d, want 93 MiB", cm.EPCBytes)
	}
	if cm.PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", cm.PageSize)
	}
	if cm.AccessCost <= 0 || cm.MissCost <= cm.AccessCost {
		t.Fatal("implausible SGX cost parameters")
	}
}

func TestDefaultSGXTransformedScaling(t *testing.T) {
	base := DefaultSGX()
	tr := DefaultSGXTransformed()
	if tr.AccessCost != base.AccessCost*111/100 {
		t.Fatalf("AccessCost = %v, want 1.11× %v", tr.AccessCost, base.AccessCost)
	}
	if tr.MissCost <= base.MissCost {
		t.Fatalf("MissCost not scaled: %v", tr.MissCost)
	}
	if tr.EPCBytes != base.EPCBytes || tr.PageSize != base.PageSize {
		t.Fatal("transformation must not change EPC geometry")
	}
}

func TestTracesIdenticalForSameAccessSequence(t *testing.T) {
	run := func(vals []int) string {
		h := trace.NewHasher()
		s := NewSpace(h, nil)
		a := Alloc[int](s, len(vals), 8)
		for i, v := range vals {
			a.Set(i, v)
		}
		for i := range vals {
			a.Get(i)
		}
		return h.Hex()
	}
	if run([]int{1, 2, 3}) != run([]int{9, 8, 7}) {
		t.Fatal("trace depends on stored values")
	}
}

func BenchmarkArraySet(b *testing.B) {
	s := NewSpace(nil, nil)
	a := Alloc[uint64](s, 1024, 8)
	for i := 0; i < b.N; i++ {
		a.Set(i&1023, uint64(i))
	}
}

func BenchmarkArraySetWithCostModel(b *testing.B) {
	s := NewSpace(nil, DefaultSGX())
	a := Alloc[uint64](s, 1024, 8)
	for i := 0; i < b.N; i++ {
		a.Set(i&1023, uint64(i))
	}
}

func TestRangeAccessMatchesElementLoop(t *testing.T) {
	log := trace.NewLog()
	s := NewSpace(log, nil)
	a := Alloc[int](s, 8, 8)
	vals := []int{10, 11, 12}
	a.SetRange(2, vals)
	got := make([]int, 3)
	a.GetRange(2, got)
	for k, v := range vals {
		if got[k] != v {
			t.Fatalf("GetRange[%d] = %d, want %d", k, got[k], v)
		}
	}
	want := []trace.Event{
		{Op: trace.Write, Array: a.ID(), Index: 2},
		{Op: trace.Write, Array: a.ID(), Index: 3},
		{Op: trace.Write, Array: a.ID(), Index: 4},
		{Op: trace.Read, Array: a.ID(), Index: 2},
		{Op: trace.Read, Array: a.ID(), Index: 3},
		{Op: trace.Read, Array: a.ID(), Index: 4},
	}
	if log.Len() != len(want) {
		t.Fatalf("recorded %d events, want %d", log.Len(), len(want))
	}
	for i, w := range want {
		if log.Events[i] != w {
			t.Fatalf("event %d = %v, want %v", i, log.Events[i], w)
		}
	}
}

func TestRangeAccessChargesCostModel(t *testing.T) {
	cost := &CostModel{PageSize: 4096, EPCBytes: 1 << 20, AccessCost: time.Nanosecond}
	s := NewSpace(nil, cost)
	a := Alloc[int](s, 16, 8)
	a.SetRange(0, make([]int, 16))
	a.GetRange(0, make([]int, 16))
	if cost.Accesses != 32 {
		t.Fatalf("Accesses = %d, want 32", cost.Accesses)
	}
}

func TestShardAliasesDataAndRedirectsTrace(t *testing.T) {
	parent := trace.NewLog()
	s := NewSpace(parent, nil)
	a := Alloc[int](s, 4, 8)
	buf := &trace.RunBuffer{}
	res := a.Shard(buf)
	if res == nil {
		t.Fatal("Shard refused without a cost model")
	}
	sh := res.(*Array[int])
	if sh.ID() != a.ID() {
		t.Fatal("shard changed array identity")
	}
	sh.Set(1, 7)
	if a.Get(1) != 7 {
		t.Fatal("shard write not visible through parent")
	}
	// The shard's write went to the buffer, not the parent recorder;
	// the parent Get above recorded exactly one event.
	if parent.Len() != 1 || buf.Len() != 1 {
		t.Fatalf("parent=%d buffered=%d events, want 1/1", parent.Len(), buf.Len())
	}
	buf.ReplayTo(parent)
	if parent.Len() != 2 || buf.Len() != 0 {
		t.Fatal("replay did not drain the buffer into the parent")
	}
}

func TestShardRefusedUnderCostModel(t *testing.T) {
	s := NewSpace(nil, DefaultSGX())
	a := Alloc[int](s, 4, 8)
	if res := a.Shard(nil); res != nil {
		t.Fatal("Shard must refuse when a cost model is attached")
	}
}

func TestTraced(t *testing.T) {
	if a := Alloc[int](NewSpace(nil, nil), 1, 8); a.Traced() {
		t.Fatal("untraced space reports Traced")
	}
	if a := Alloc[int](NewSpace(trace.NewLog(), nil), 1, 8); !a.Traced() {
		t.Fatal("traced space reports untraced")
	}
}

func TestRangeAccessPanicsPastLenAfterResize(t *testing.T) {
	s := NewSpace(nil, nil)
	a := FromSlice(s, make([]int, 8)[:4], 8) // capacity 8, length 4
	defer func() {
		if recover() == nil {
			t.Fatal("GetRange past Len must panic like the Get loop would")
		}
	}()
	a.GetRange(2, make([]int, 4)) // [2,6) exceeds len 4 but fits cap 8
}
