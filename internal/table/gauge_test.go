package table

import (
	"testing"

	"oblivjoin/internal/memory"
)

func TestGaugeAccounting(t *testing.T) {
	g := &Gauge{}
	g.Charge(100)
	g.Charge(50)
	if g.live != 150 || g.Peak() != 150 || g.Total() != 150 {
		t.Fatalf("live=%d peak=%d total=%d", g.live, g.Peak(), g.Total())
	}
	g.Discharge(120)
	g.Charge(40)
	if g.live != 70 || g.Peak() != 150 || g.Total() != 190 {
		t.Fatalf("after discharge: live=%d peak=%d total=%d", g.live, g.Peak(), g.Total())
	}
}

func TestGaugeTrackedAllocAndRelease(t *testing.T) {
	g := &Gauge{}
	s := memory.NewSpace(nil, nil)
	alloc := TrackedAlloc(PlainAlloc(s), g)
	st := alloc(10)
	if want := PlainFootprint(10); g.live != want {
		t.Fatalf("live=%d want %d", g.live, want)
	}
	g.Track(st, 0) // second Track must not double-charge
	g.Release(st)
	g.Release(st) // idempotent
	if g.live != 0 {
		t.Fatalf("live=%d after release", g.live)
	}
	alloc(4)
	g.ReleaseAll()
	if g.live != 0 {
		t.Fatalf("live=%d after ReleaseAll", g.live)
	}
}
