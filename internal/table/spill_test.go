package table

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oblivjoin/internal/memory"
	"oblivjoin/internal/trace"
)

// The TestSpill* names pin the file backing at the default width; the
// bodies are in sealed_test.go, the IO fault cases in fault_test.go.

func TestSpillGetSetRoundTrip(t *testing.T) { checkGetSet(t, file16) }

func TestSpillRangeRoundTrip(t *testing.T) { checkRange(t, file16) }

// TestSpillFileCiphertextOnly is the at-rest guarantee of the spill
// path: a known plaintext pattern written through the store must never
// appear in the backing file's bytes.
func TestSpillFileCiphertextOnly(t *testing.T) { checkCiphertextOnly(t, file16) }

// TestSpillTraceMatchesMemory: spilling never changes a canonical trace.
func TestSpillTraceMatchesMemory(t *testing.T) { checkTrace(t, file16) }

func TestGaugeAccounting(t *testing.T) {
	g := &Gauge{}
	g.Charge(100)
	g.Charge(50)
	if g.Live() != 150 || g.Peak() != 150 || g.Total() != 150 {
		t.Fatalf("live=%d peak=%d total=%d", g.Live(), g.Peak(), g.Total())
	}
	g.Discharge(120)
	g.Charge(40)
	if g.Live() != 70 || g.Peak() != 150 || g.Total() != 190 {
		t.Fatalf("after discharge: live=%d peak=%d total=%d", g.Live(), g.Peak(), g.Total())
	}
}

func TestGaugeTrackedAllocAndRelease(t *testing.T) {
	g := &Gauge{}
	s := memory.NewSpace(nil, nil)
	alloc := TrackedAlloc(PlainAlloc(s), g)
	st := alloc(10)
	if want := PlainFootprint(10); g.Live() != want {
		t.Fatalf("live=%d want %d", g.Live(), want)
	}
	cleaned := 0
	g.Track(st, 0, func() { cleaned++ }) // second Track must not double-charge
	g.Release(st)
	g.Release(st) // idempotent
	if g.Live() != 0 {
		t.Fatalf("live=%d after release", g.Live())
	}
	st2 := alloc(4)
	g.ReleaseAll()
	if g.Live() != 0 {
		t.Fatalf("live=%d after ReleaseAll", g.Live())
	}
	_ = st2
}

// TestSpillerBudgetAlloc: allocations under budget stay in memory,
// over-budget ones divert to spill files, and releasing a spill store
// deletes its file.
func TestSpillerBudgetAlloc(t *testing.T) {
	dir := t.TempDir()
	g := &Gauge{}
	s := memory.NewSpace(nil, nil)
	sp := NewSpillerFS(s, newCipher(t), nil, dir, 0, g)
	budget := PlainFootprint(100)
	alloc := BudgetAlloc(TrackedAlloc(PlainAlloc(s), g), sp, g, budget, PlainFootprint)

	small := alloc(10) // fits
	if _, ok := small.(*BlockEncrypted); ok {
		t.Fatal("under-budget allocation spilled")
	}
	big := alloc(200) // would exceed: diverts
	spl, ok := big.(*BlockEncrypted)
	if !ok || Footprint(spl) != 0 {
		t.Fatalf("over-budget allocation stayed in memory (live=%d)", g.Live())
	}
	if want := BlockFootprint(200, 0); g.Spills() != 1 || g.SpillBytes() != want {
		t.Fatalf("spills=%d spillBytes=%d want 1/%d", g.Spills(), g.SpillBytes(), want)
	}
	for i := 0; i < 200; i++ {
		spl.Set(i, entryAt(i))
	}
	if got := spl.Get(137); got != entryAt(137) {
		t.Fatalf("spilled store round-trip: %+v", got)
	}
	g.Release(big)
	if _, err := os.Stat(spillPath(spl)); !os.IsNotExist(err) {
		t.Fatalf("spill file survives release: %v", err)
	}
	g.ReleaseAll()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("leftover spill file %s", filepath.Join(dir, e.Name()))
	}
}

// TestBuilderMatchesElementLoop: a builder fill produces the same
// store contents and the same canonical trace as the per-entry Set
// loop it replaces — including when the appends are interleaved, in
// time, with reads from another array (the streaming schedule).
func TestBuilderMatchesElementLoop(t *testing.T) {
	const n = 3*DefaultSealedBlock + 5
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{J: uint64(i % 7), D: MustData(fmt.Sprintf("r%d", i))}
	}

	run := func(fill func(s *memory.Space, dst Store, src Store)) (string, []Entry) {
		h := trace.NewHasher()
		s := memory.NewSpace(h, nil)
		src := plainStore(s, n) // array 0: the upstream being drained
		dst := plainStore(s, n) // array 1: the store being filled
		fill(s, dst, src)
		out := make([]Entry, n)
		for i := range out {
			out[i] = dst.Get(i)
		}
		return h.Hex(), out
	}

	// Reference: drain src fully, then the element loop of ops.load.
	wantHash, wantOut := run(func(s *memory.Space, dst, src Store) {
		for i := 0; i < n; i++ {
			src.Get(i)
		}
		for i, r := range rows {
			dst.Set(i, Entry{J: r.J, D: r.D, TID: 1})
		}
	})

	// Streaming: builder appends interleaved with the upstream reads;
	// the deferred-write replay must reorder the recorded events back
	// into the reference order.
	gotHash, gotOut := run(func(s *memory.Space, dst, src Store) {
		bld := NewBuilder(dst)
		const batch = 8
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			for i := lo; i < hi; i++ {
				src.Get(i)
			}
			bld.AppendRows(rows[lo:hi], 1)
		}
		bld.Flush()
	})

	if gotHash != wantHash {
		t.Fatalf("builder trace %s != element-loop trace %s", gotHash, wantHash)
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("entry %d: %+v != %+v", i, gotOut[i], wantOut[i])
		}
	}
}
