package table

import (
	"testing"
	"testing/quick"

	"oblivjoin/internal/obliv"
)

func entryFixture() Entry {
	return Entry{
		J: 42, D: MustData("payload"), TID: 2,
		A1: 3, A2: 5, F: 17, II: 9, Null: 1,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := entryFixture()
	var buf [EncodedSize]byte
	e.Encode(buf[:])
	got := DecodeEntry(buf[:])
	if got != e {
		t.Fatalf("round trip: got %+v, want %+v", got, e)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(j, tid, a1, a2, fdest, ii uint64, null bool, d Data) bool {
		e := Entry{J: j, D: d, TID: tid, A1: a1, A2: a2, F: fdest, II: ii, Null: obliv.Bool(null)}
		var buf [EncodedSize]byte
		e.Encode(buf[:])
		return DecodeEntry(buf[:]) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := entryFixture()
	e.Encode(make([]byte, EncodedSize-1))
}

func TestMakeData(t *testing.T) {
	d, err := MakeData("abc")
	if err != nil {
		t.Fatal(err)
	}
	if DataString(d) != "abc" {
		t.Fatalf("DataString = %q", DataString(d))
	}
	if _, err := MakeData("this string is definitely longer than sixteen bytes"); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestMustDataPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustData("a very long string exceeding the payload")
}

func TestCondSwapEntry(t *testing.T) {
	a := entryFixture()
	b := Entry{J: 1, D: MustData("other"), TID: 1}
	a0, b0 := a, b
	CondSwapEntry(0, &a, &b)
	if a != a0 || b != b0 {
		t.Fatal("CondSwapEntry(0) mutated entries")
	}
	CondSwapEntry(1, &a, &b)
	if a != b0 || b != a0 {
		t.Fatal("CondSwapEntry(1) did not swap")
	}
}

func TestCondCopyEntry(t *testing.T) {
	dst := entryFixture()
	src := Entry{J: 7, D: MustData("src"), TID: 1, Null: 0}
	orig := dst
	CondCopyEntry(0, &dst, &src)
	if dst != orig {
		t.Fatal("CondCopyEntry(0) mutated dst")
	}
	CondCopyEntry(1, &dst, &src)
	if dst != src {
		t.Fatal("CondCopyEntry(1) did not copy")
	}
}

func TestLessJTID(t *testing.T) {
	tests := []struct {
		x, y Entry
		want uint64
	}{
		{Entry{J: 1, TID: 2}, Entry{J: 2, TID: 1}, 1},
		{Entry{J: 2, TID: 1}, Entry{J: 1, TID: 2}, 0},
		{Entry{J: 1, TID: 1}, Entry{J: 1, TID: 2}, 1},
		{Entry{J: 1, TID: 2}, Entry{J: 1, TID: 1}, 0},
		{Entry{J: 1, TID: 1}, Entry{J: 1, TID: 1}, 0},
	}
	for i, tt := range tests {
		if got := LessJTID(tt.x, tt.y); got != tt.want {
			t.Errorf("case %d: LessJTID = %d, want %d", i, got, tt.want)
		}
	}
}

func TestLessJTIDMatchesReference(t *testing.T) {
	f := func(j1, t1, j2, t2 uint8) bool {
		x := Entry{J: uint64(j1), TID: uint64(t1)}
		y := Entry{J: uint64(j2), TID: uint64(t2)}
		want := obliv.Bool(x.J < y.J || (x.J == y.J && x.TID < y.TID))
		return LessJTID(x, y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLessTIDJDMatchesReference(t *testing.T) {
	f := func(t1, j1, t2, j2 uint8, d1, d2 [2]byte) bool {
		x := Entry{TID: uint64(t1), J: uint64(j1)}
		y := Entry{TID: uint64(t2), J: uint64(j2)}
		copy(x.D[:], d1[:])
		copy(y.D[:], d2[:])
		want := obliv.Bool(
			x.TID < y.TID ||
				(x.TID == y.TID && x.J < y.J) ||
				(x.TID == y.TID && x.J == y.J && string(x.D[:]) < string(y.D[:])))
		return LessTIDJD(x, y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLessNullF(t *testing.T) {
	nonNull := Entry{F: 100, Null: 0}
	null := Entry{F: 1, Null: 1}
	if LessNullF(nonNull, null) != 1 {
		t.Fatal("non-null entry must order before null")
	}
	if LessNullF(null, nonNull) != 0 {
		t.Fatal("null entry must order after non-null")
	}
	a, b := Entry{F: 1}, Entry{F: 2}
	if LessNullF(a, b) != 1 || LessNullF(b, a) != 0 {
		t.Fatal("non-null entries must order by F")
	}
}

func TestLessJII(t *testing.T) {
	f := func(jx, ix, jy, iy uint8) bool {
		x := Entry{J: uint64(jx), II: uint64(ix)}
		y := Entry{J: uint64(jy), II: uint64(iy)}
		want := obliv.Bool(x.J < y.J || (x.J == y.J && x.II < y.II))
		return LessJII(x, y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComparatorsAreStrict(t *testing.T) {
	// A strict weak order must be irreflexive under every comparator.
	e := entryFixture()
	for name, less := range map[string]func(x, y Entry) uint64{
		"LessJTID": LessJTID, "LessTIDJD": LessTIDJD,
		"LessNullF": LessNullF, "LessJII": LessJII,
	} {
		if less(e, e) != 0 {
			t.Errorf("%s(e, e) != 0", name)
		}
	}
}

func TestDataStringStopsAtPadding(t *testing.T) {
	var d Data
	copy(d[:], "ab\x00cd")
	// Trailing zeros trimmed, interior zeros preserved.
	if got := DataString(d); got != "ab\x00cd" {
		t.Fatalf("DataString = %q", got)
	}
}
