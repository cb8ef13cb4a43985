package bitonic

import (
	"math/rand"
	"testing"

	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
)

// tagged orders by K alone, so equal keys with different IDs expose
// which way a comparator resolved a tie.
type tagged struct{ K, ID uint64 }

func lessTagged(x, y tagged) uint64 { return obliv.Less(x.K, y.K) }

func swapTagged(c uint64, x, y *tagged) {
	obliv.CondSwap(c, &x.K, &y.K)
	obliv.CondSwap(c, &x.ID, &y.ID)
}

// The kernel picks the operand order from Dir and evaluates less once.
// It must swap exactly when the two-sided form — evaluate both orders,
// select by Dir — would, ties included.
func TestCompareExchangeMatchesTwoSidedSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kernel := compareExchange(lessTagged, swapTagged)
	for dir := uint64(0); dir <= 1; dir++ {
		const cnt = 4096
		x, y := make([]tagged, cnt), make([]tagged, cnt)
		for k := range x {
			x[k] = tagged{K: uint64(rng.Intn(3)), ID: uint64(2 * k)}
			y[k] = tagged{K: uint64(rng.Intn(3)), ID: uint64(2*k + 1)}
		}
		wantX, wantY := append([]tagged(nil), x...), append([]tagged(nil), y...)
		for k := range wantX {
			c := obliv.Select(dir, lessTagged(wantY[k], wantX[k]), lessTagged(wantX[k], wantY[k]))
			swapTagged(c, &wantX[k], &wantY[k])
		}
		kernel(Segment{Lo: 0, Cnt: cnt, Hop: cnt, Dir: dir}, x, y)
		for k := range x {
			if x[k] != wantX[k] || y[k] != wantY[k] {
				t.Fatalf("dir=%d pair %d: got %v %v, want %v %v", dir, k, x[k], y[k], wantX[k], wantY[k])
			}
		}
	}
}

// Once the executor exists and its chunk list has grown, running rounds
// allocates nothing: the kernel works in the lane's value block. n is
// chosen so rounds cut into both span chunks and pair chunks.
func TestRoundLoopAllocFree(t *testing.T) {
	const n = 5000
	data := make([]uint64, n)
	rng := rand.New(rand.NewSource(8))
	for i := range data {
		data[i] = rng.Uint64()
	}
	var rounds [][]Segment
	bitonicRounds(n, func(segs []Segment) {
		rounds = append(rounds, append([]Segment(nil), segs...))
	})
	a := memory.FromSlice(memory.NewSpace(nil, nil), data, 8)
	ex := newRoundExec[uint64](a, compareExchange(lessU64, swapU64), 1, nil)
	run := func() {
		for _, segs := range rounds {
			ex.runRound(segs)
		}
	}
	run()
	if !equal(data, sortedCopy(data)) {
		t.Fatal("warm-up pass did not sort")
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("round loop allocates %v times per sort, want 0", allocs)
	}
}

// A small store gets a value block of its own length, not the
// chunk-size constant; a large one is capped at one span chunk.
func TestValueBlockSizedByStoreLength(t *testing.T) {
	for _, tt := range []struct{ n, want int }{{2, 2}, {64, 64}, {1 << 14, spanChunk}} {
		a := memory.FromSlice(memory.NewSpace(nil, nil), make([]uint64, tt.n), 8)
		ex := newRoundExec[uint64](a, compareExchange(lessU64, swapU64), 1, nil)
		if got := len(ex.seq.blk); got != tt.want {
			t.Errorf("n=%d: value block holds %d entries, want %d", tt.n, got, tt.want)
		}
	}
}
