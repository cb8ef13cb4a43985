package table

import (
	"fmt"
	"testing"

	"oblivjoin/internal/memory"
	"oblivjoin/internal/trace"
)

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
