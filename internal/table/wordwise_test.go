package table

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"oblivjoin/internal/obliv"
)

// The comparators, swaps and copies of table.go handle a Data payload as
// two big-endian words. The references below are the byte-at-a-time
// definitions they must agree with on every input.

func refCmp(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// refLess is lexicographic strict-less over per-key three-way results,
// most significant key first.
func refLess(cmps ...int) uint64 {
	for _, c := range cmps {
		if c != 0 {
			if c < 0 {
				return 1
			}
			return 0
		}
	}
	return 0
}

func refCmpData(a, b Data) int { return bytes.Compare(a[:], b[:]) }

func refCondSwapData(c uint64, a, b *Data) {
	m := byte(-c)
	for i := range a {
		t := (a[i] ^ b[i]) & m
		a[i] ^= t
		b[i] ^= t
	}
}

func refCondCopyData(c uint64, dst *Data, src Data) {
	m := byte(-c)
	for i := range dst {
		dst[i] = (src[i] & m) | (dst[i] &^ m)
	}
}

func refCondSwapWord(c uint64, a, b *uint64) {
	if c == 1 {
		*a, *b = *b, *a
	}
}

// adversarialData returns payloads built to break a word-wise compare:
// equal pairs, pairs differing only at a word edge (bytes 0, 7, 8, 15),
// and the byte values around the sign bit, over an all-zero and an
// all-ones background.
func adversarialData() []Data {
	var out []Data
	for _, fill := range []byte{0x00, 0xff} {
		var base Data
		for i := range base {
			base[i] = fill
		}
		out = append(out, base)
		for _, pos := range []int{0, 7, 8, 15} {
			for _, v := range []byte{0x00, 0x7f, 0x80, 0xff} {
				d := base
				d[pos] = v
				out = append(out, d)
			}
		}
	}
	return out
}

// testData is the adversarial set plus random payloads.
func testData(rng *rand.Rand) []Data {
	out := adversarialData()
	for i := 0; i < 32; i++ {
		var d Data
		rng.Read(d[:])
		out = append(out, d)
	}
	return out
}

// testWord draws from a domain small enough that ties are common and
// wide enough to cover both ends of the unsigned range.
func testWord(rng *rand.Rand) uint64 {
	return []uint64{0, 1, 2, 1 << 63, math.MaxUint64}[rng.Intn(5)]
}

func testEntry(rng *rand.Rand, data []Data) Entry {
	return Entry{
		J: testWord(rng), D: data[rng.Intn(len(data))], TID: testWord(rng),
		A1: rng.Uint64(), A2: rng.Uint64(), F: testWord(rng), II: testWord(rng),
		Null: uint64(rng.Intn(2)),
	}
}

func TestDataPrimitivesMatchBytewise(t *testing.T) {
	data := testData(rand.New(rand.NewSource(1)))
	for _, a := range data {
		for _, b := range data {
			if got, want := LessData(a, b), refLess(refCmpData(a, b)); got != want {
				t.Fatalf("LessData(%x, %x) = %d, want %d", a, b, got, want)
			}
			if got, want := EqData(a, b), obliv.Bool(a == b); got != want {
				t.Fatalf("EqData(%x, %x) = %d, want %d", a, b, got, want)
			}
			for c := uint64(0); c <= 1; c++ {
				x, y, rx, ry := a, b, a, b
				CondSwapData(c, &x, &y)
				refCondSwapData(c, &rx, &ry)
				if x != rx || y != ry {
					t.Fatalf("CondSwapData(%d, %x, %x) = %x, %x", c, a, b, x, y)
				}
				dst, rdst := a, a
				CondCopyData(c, &dst, b)
				refCondCopyData(c, &rdst, b)
				if dst != rdst {
					t.Fatalf("CondCopyData(%d, %x, %x) = %x", c, a, b, dst)
				}
			}
		}
	}
}

func TestEntryOrdersMatchBytewise(t *testing.T) {
	orders := []struct {
		name string
		less func(x, y Entry) uint64
		ref  func(x, y Entry) uint64
	}{
		{"LessJTID", LessJTID, func(x, y Entry) uint64 {
			return refLess(refCmp(x.J, y.J), refCmp(x.TID, y.TID))
		}},
		{"LessTIDJD", LessTIDJD, func(x, y Entry) uint64 {
			return refLess(refCmp(x.TID, y.TID), refCmp(x.J, y.J), refCmpData(x.D, y.D))
		}},
		{"LessJD", LessJD, func(x, y Entry) uint64 {
			return refLess(refCmp(x.J, y.J), refCmpData(x.D, y.D))
		}},
		{"LessNullF", LessNullF, func(x, y Entry) uint64 {
			return refLess(refCmp(x.Null, y.Null), refCmp(x.F, y.F))
		}},
		{"LessJII", LessJII, func(x, y Entry) uint64 {
			return refLess(refCmp(x.J, y.J), refCmp(x.II, y.II))
		}},
	}
	rng := rand.New(rand.NewSource(2))
	data := testData(rng)
	for _, o := range orders {
		for i := 0; i < 20000; i++ {
			x, y := testEntry(rng, data), testEntry(rng, data)
			if i%8 == 0 {
				y = x // full tie
			}
			if got, want := o.less(x, y), o.ref(x, y); got != want {
				t.Fatalf("%s(%+v, %+v) = %d, want %d", o.name, x, y, got, want)
			}
		}
	}
}

func TestCondSwapCopyMatchBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := testData(rng)
	for i := 0; i < 20000; i++ {
		c := uint64(i & 1)
		a, b := testEntry(rng, data), testEntry(rng, data)

		x, y, rx, ry := a, b, a, b
		CondSwapEntry(c, &x, &y)
		refCondSwapData(c, &rx.D, &ry.D)
		for _, w := range [][2]*uint64{{&rx.J, &ry.J}, {&rx.TID, &ry.TID}, {&rx.A1, &ry.A1},
			{&rx.A2, &ry.A2}, {&rx.F, &ry.F}, {&rx.II, &ry.II}, {&rx.Null, &ry.Null}} {
			refCondSwapWord(c, w[0], w[1])
		}
		if x != rx || y != ry {
			t.Fatalf("CondSwapEntry(%d, %+v, %+v) = %+v, %+v", c, a, b, x, y)
		}

		dst, want := a, a
		CondCopyEntry(c, &dst, &b)
		if c == 1 {
			want = b
		}
		refCondCopyData(c, &want.D, b.D)
		if dst != want {
			t.Fatalf("CondCopyEntry(%d, %+v, %+v) = %+v", c, a, b, dst)
		}
	}
}

// BenchmarkCompareExchange measures one compare–exchange per order the
// way the sorting networks issue it: the order through a function value,
// one evaluation per pair, over the two halves of a 1024-entry span.
func BenchmarkCompareExchange(b *testing.B) {
	orders := []struct {
		name string
		less func(x, y Entry) uint64
	}{
		{"LessJTID", LessJTID}, {"LessTIDJD", LessTIDJD}, {"LessJD", LessJD},
		{"LessNullF", LessNullF}, {"LessJII", LessJII},
	}
	const span = 1024
	rng := rand.New(rand.NewSource(5))
	data := testData(rng)
	buf := make([]Entry, span)
	for i := range buf {
		buf[i] = testEntry(rng, data)
	}
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			x, y := buf[:span/2], buf[span/2:]
			for i := 0; i < b.N; i++ {
				for k := range x {
					CondSwapEntry(o.less(y[k], x[k]), &x[k], &y[k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span/2), "ns/comparator")
		})
	}
}
