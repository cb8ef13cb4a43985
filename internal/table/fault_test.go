package table

import (
	"errors"
	"testing"

	"oblivjoin/internal/fault"
	"oblivjoin/internal/memory"
)

// newFaulty returns a two-block file-backed store whose IO runs through
// a disarmed seeded injector.
func newFaulty(t *testing.T) (*fault.Injector, *BlockEncrypted) {
	t.Helper()
	in := fault.NewInjector(nil, 11)
	st, err := NewSpillFS(memory.NewSpace(nil, nil), newCipher(t), in, t.TempDir(), 2*DefaultSealedBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return in, st
}

func TestSpillWriteFaultTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule fault.Rule
	}{
		{"enospc", fault.Rule{Op: fault.OpWrite, Err: fault.ENOSPC}},
		{"eio", fault.Rule{Op: fault.OpWrite, Err: fault.EIO}},
		{"short", fault.Rule{Op: fault.OpWrite, Err: fault.ENOSPC, ShortBy: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, st := newFaulty(t)
			in.Arm(tc.rule)
			ferr := catchFault(t, func() { st.Set(0, entryAt(0)) })
			if !errors.Is(ferr, ErrSpillIO) {
				t.Fatalf("fault = %v, want ErrSpillIO", ferr)
			}
			if !fault.IsInjectable(ferr) {
				t.Fatalf("fault %v does not carry the injected errno", ferr)
			}
			in.Disarm()
			if tc.rule.ShortBy > 0 {
				// A short write tore the block — a prefix of the new
				// ciphertext over the old — so damage to sealed bytes is
				// detected typed on the next access. Read-modify-write
				// can't heal a torn block (the read-back faults first);
				// a full-block overwrite, which stages no read-back,
				// can.
				ferr := catchFault(t, func() { st.Get(0) })
				if !errors.Is(ferr, ErrSealedAuth) {
					t.Fatalf("torn block = %v, want ErrSealedAuth", ferr)
				}
				ents := make([]Entry, DefaultSealedBlock)
				for i := range ents {
					ents[i] = entryAt(i)
				}
				st.SetRange(0, ents)
			} else {
				// Nothing reached the disk: once the schedule clears,
				// the store serves again as-is.
				st.Set(0, entryAt(0))
			}
			if got := st.Get(0); got != entryAt(0) {
				t.Fatalf("post-fault round trip: %+v", got)
			}
		})
	}
}

func TestSpillReadFaultTyped(t *testing.T) {
	in, st := newFaulty(t)
	st.Set(0, entryAt(0))
	in.Arm(fault.Rule{Op: fault.OpRead, Err: fault.EIO})
	ferr := catchFault(t, func() { st.Get(0) })
	if !errors.Is(ferr, ErrSpillIO) || !errors.Is(ferr, fault.EIO) {
		t.Fatalf("fault = %v, want ErrSpillIO wrapping EIO", ferr)
	}
}

// TestSpillTamperAuthTyped: a flipped ciphertext bit on the read path
// surfaces as a typed ErrSealedAuth fault, not a raw panic — the
// integrity half of the containment story.
func TestSpillTamperAuthTyped(t *testing.T) {
	in, st := newFaulty(t)
	st.Set(0, entryAt(0))
	in.Arm(fault.Rule{Op: fault.OpRead, FlipBit: true})
	ferr := catchFault(t, func() { st.Get(0) })
	if !errors.Is(ferr, ErrSealedAuth) {
		t.Fatalf("fault = %v, want ErrSealedAuth", ferr)
	}
}

// TestSpillerAllocFaultReturnsError: Alloc's file creation is an
// ordinary error path (no store exists yet to panic from), so an
// injected open failure must come back as an error, not a panic.
func TestSpillerAllocFaultReturnsError(t *testing.T) {
	in := fault.NewInjector(nil, 11)
	in.Arm(fault.Rule{Op: fault.OpOpen, Err: fault.ENOSPC})
	s := memory.NewSpace(nil, nil)
	sp := NewSpillerFS(s, newCipher(t), in, t.TempDir(), 0, &Gauge{})
	if _, err := sp.Alloc(8); !errors.Is(err, fault.ENOSPC) {
		t.Fatalf("Alloc under ENOSPC = %v, want ENOSPC", err)
	}
}
