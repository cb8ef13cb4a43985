package bitonic

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/trace"
)

func lessU64(x, y uint64) uint64 { return obliv.Less(x, y) }

func swapU64(c uint64, x, y *uint64) { obliv.CondSwap(c, x, y) }

// sortSlice sorts a plain slice through an untraced space.
func sortSlice(data []uint64, less LessFunc[uint64], st *Stats) {
	Sort(memory.FromSlice(memory.NewSpace(nil, nil), data, 1), less, swapU64, st)
}

func sortedCopy(in []uint64) []uint64 {
	out := append([]uint64(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSortSmallFixed(t *testing.T) {
	tests := [][]uint64{
		{},
		{1},
		{2, 1},
		{1, 2},
		{3, 1, 2},
		{5, 4, 3, 2, 1},
		{1, 1, 1, 1},
		{9, 0, 9, 0, 9},
		{7, 3, 7, 1, 7, 3, 0},
	}
	for _, in := range tests {
		data := append([]uint64(nil), in...)
		sortSlice(data, lessU64, nil)
		if !equal(data, sortedCopy(in)) {
			t.Errorf("Sort(%v) = %v", in, data)
		}
	}
}

func TestSortAllLengthsUpTo64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 64; n++ {
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(rng.Intn(16)) // duplicates likely
		}
		want := sortedCopy(data)
		sortSlice(data, lessU64, nil)
		if !equal(data, want) {
			t.Fatalf("n=%d: got %v want %v", n, data, want)
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(in []uint64) bool {
		data := append([]uint64(nil), in...)
		sortSlice(data, lessU64, nil)
		return equal(data, sortedCopy(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeExchangeSortAllLengthsUpTo64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sp := memory.NewSpace(nil, nil)
	for n := 0; n <= 64; n++ {
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(rng.Intn(8))
		}
		want := sortedCopy(data)
		MergeExchangeSort(memory.FromSlice(sp, data, 8), lessU64, swapU64, nil)
		if !equal(data, want) {
			t.Fatalf("n=%d: got %v want %v", n, data, want)
		}
	}
}

func TestMergeExchangeSortProperty(t *testing.T) {
	sp := memory.NewSpace(nil, nil)
	f := func(in []uint64) bool {
		data := append([]uint64(nil), in...)
		MergeExchangeSort(memory.FromSlice(sp, data, 8), lessU64, swapU64, nil)
		return equal(data, sortedCopy(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceObliviousness verifies that the access pattern of the bitonic
// sorter depends only on n: the defining property of a sorting network.
func TestTraceObliviousness(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33} {
		runHash := func(seed int64) string {
			h := trace.NewHasher()
			sp := memory.NewSpace(h, nil)
			a := memory.Alloc[uint64](sp, n, 8)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				a.Set(i, uint64(rng.Int63()))
			}
			Sort(a, lessU64, swapU64, nil)
			return h.Hex()
		}
		first := runHash(1)
		for seed := int64(2); seed <= 5; seed++ {
			if got := runHash(seed); got != first {
				t.Fatalf("n=%d: trace differs between inputs", n)
			}
		}
	}
}

func TestMergeExchangeTraceObliviousness(t *testing.T) {
	n := 25
	runHash := func(seed int64) string {
		h := trace.NewHasher()
		sp := memory.NewSpace(h, nil)
		a := memory.Alloc[uint64](sp, n, 8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			a.Set(i, uint64(rng.Int63()))
		}
		MergeExchangeSort(a, lessU64, swapU64, nil)
		return h.Hex()
	}
	if runHash(10) != runHash(77) {
		t.Fatal("merge-exchange trace differs between inputs")
	}
}

func TestStatsMatchComparators(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13, 16, 31, 64, 100} {
		var st Stats
		data := make([]uint64, n)
		sortSlice(data, lessU64, &st)
		if want := Comparators(n); st.CompareExchanges != want {
			t.Fatalf("n=%d: counted %d compare-exchanges, Comparators says %d",
				n, st.CompareExchanges, want)
		}
	}
}

func TestComparatorsAsymptotic(t *testing.T) {
	// For n a power of two the bitonic network has n/4·log n·(log n+1)
	// comparators exactly.
	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024} {
		log := 0
		for 1<<log < n {
			log++
		}
		want := uint64(n * log * (log + 1) / 4)
		if got := Comparators(n); got != want {
			t.Fatalf("Comparators(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMergeExchangeComparatorsMatchCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 31, 64, 100, 1000} {
		var st Stats
		sp := memory.NewSpace(nil, nil)
		data := make([]uint64, n)
		MergeExchangeSort(memory.FromSlice(sp, data, 8), lessU64, swapU64, &st)
		if want := MergeExchangeComparators(n); st.CompareExchanges != want {
			t.Fatalf("n=%d: counted %d compare-exchanges, MergeExchangeComparators says %d",
				n, st.CompareExchanges, want)
		}
	}
}

func TestMergeExchangeFewerComparators(t *testing.T) {
	n := 1024
	var bit, me Stats
	d1 := make([]uint64, n)
	sortSlice(d1, lessU64, &bit)
	sp := memory.NewSpace(nil, nil)
	d2 := make([]uint64, n)
	MergeExchangeSort(memory.FromSlice(sp, d2, 8), lessU64, swapU64, &me)
	if me.CompareExchanges >= bit.CompareExchanges {
		t.Fatalf("merge-exchange (%d) not cheaper than bitonic (%d)",
			me.CompareExchanges, bit.CompareExchanges)
	}
}

func TestSortStability_NotRequired_ButDeterministic(t *testing.T) {
	// The network is deterministic: equal inputs give equal outputs.
	in := []uint64{5, 3, 5, 1, 3}
	a := append([]uint64(nil), in...)
	b := append([]uint64(nil), in...)
	sortSlice(a, lessU64, nil)
	sortSlice(b, lessU64, nil)
	if !equal(a, b) {
		t.Fatal("network is not deterministic")
	}
}

func TestDescendingViaInvertedLess(t *testing.T) {
	data := []uint64{1, 9, 4, 4, 7}
	sortSlice(data, func(x, y uint64) uint64 { return obliv.Greater(x, y) }, nil)
	for i := 1; i < len(data); i++ {
		if data[i-1] < data[i] {
			t.Fatalf("not descending: %v", data)
		}
	}
}

func benchSort(b *testing.B, n int, sortFn func(a *memory.Array[uint64])) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	sp := memory.NewSpace(nil, nil)
	work := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, vals)
		sortFn(memory.FromSlice(sp, work, 8))
	}
}

func BenchmarkBitonic1k(b *testing.B) {
	benchSort(b, 1024, func(a *memory.Array[uint64]) { Sort(a, lessU64, swapU64, nil) })
}

func BenchmarkBitonic64k(b *testing.B) {
	benchSort(b, 64*1024, func(a *memory.Array[uint64]) { Sort(a, lessU64, swapU64, nil) })
}

func BenchmarkMergeExchange64k(b *testing.B) {
	benchSort(b, 64*1024, func(a *memory.Array[uint64]) { MergeExchangeSort(a, lessU64, swapU64, nil) })
}
