package obliv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBool(t *testing.T) {
	if Bool(true) != 1 {
		t.Fatalf("Bool(true) = %d, want 1", Bool(true))
	}
	if Bool(false) != 0 {
		t.Fatalf("Bool(false) = %d, want 0", Bool(false))
	}
}

func TestSelect(t *testing.T) {
	tests := []struct {
		c, a, b, want uint64
	}{
		{1, 5, 9, 5},
		{0, 5, 9, 9},
		{1, 0, math.MaxUint64, 0},
		{0, 0, math.MaxUint64, math.MaxUint64},
		{1, math.MaxUint64, 0, math.MaxUint64},
	}
	for _, tt := range tests {
		if got := Select(tt.c, tt.a, tt.b); got != tt.want {
			t.Errorf("Select(%d, %d, %d) = %d, want %d", tt.c, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSelectProperty(t *testing.T) {
	f := func(c bool, a, b uint64) bool {
		want := b
		if c {
			want = a
		}
		return Select(Bool(c), a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondSwap(t *testing.T) {
	a, b := uint64(3), uint64(8)
	CondSwap(0, &a, &b)
	if a != 3 || b != 8 {
		t.Fatalf("CondSwap(0): got (%d,%d), want (3,8)", a, b)
	}
	CondSwap(1, &a, &b)
	if a != 8 || b != 3 {
		t.Fatalf("CondSwap(1): got (%d,%d), want (8,3)", a, b)
	}
}

func TestCondSwapProperty(t *testing.T) {
	f := func(c bool, a, b uint64) bool {
		x, y := a, b
		CondSwap(Bool(c), &x, &y)
		if c {
			return x == b && y == a
		}
		return x == a && y == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondCopy(t *testing.T) {
	d := uint64(1)
	CondCopy(0, &d, 42)
	if d != 1 {
		t.Fatalf("CondCopy(0) overwrote: %d", d)
	}
	CondCopy(1, &d, 42)
	if d != 42 {
		t.Fatalf("CondCopy(1) did not copy: %d", d)
	}
}

func TestEqNeq(t *testing.T) {
	f := func(a, b uint64) bool {
		wantEq := Bool(a == b)
		return Eq(a, b) == wantEq && Neq(a, b) == 1-wantEq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Eq(0, 0) != 1 || Eq(math.MaxUint64, math.MaxUint64) != 1 {
		t.Fatal("Eq on equal extremes failed")
	}
}

func TestComparisons(t *testing.T) {
	f := func(a, b uint64) bool {
		return Less(a, b) == Bool(a < b) &&
			LessEq(a, b) == Bool(a <= b) &&
			Greater(a, b) == Bool(a > b) &&
			GreaterEq(a, b) == Bool(a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Boundary cases that random testing rarely finds.
	cases := [][2]uint64{
		{0, 0},
		{0, math.MaxUint64},
		{math.MaxUint64, 0},
		{1 << 63, (1 << 63) - 1},
		{(1 << 63) - 1, 1 << 63},
	}
	for _, c := range cases {
		a, b := c[0], c[1]
		if Less(a, b) != Bool(a < b) {
			t.Errorf("Less(%d, %d) wrong", a, b)
		}
	}
}

func TestLogicOps(t *testing.T) {
	for _, a := range []uint64{0, 1} {
		for _, b := range []uint64{0, 1} {
			if And(a, b) != a&b || Or(a, b) != a|b {
				t.Fatalf("And/Or(%d,%d) wrong", a, b)
			}
		}
		if Not(a) != 1-a {
			t.Fatalf("Not(%d) wrong", a)
		}
	}
}

func BenchmarkSelect(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s += Select(uint64(i&1), uint64(i), s)
	}
	_ = s
}
