package workload

import (
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
)

func outputSize(t1, t2 []table.Row) int {
	sp := memory.NewSpace(nil, nil)
	return core.OutputSize(&core.Config{Alloc: table.PlainAlloc(sp)}, t1, t2)
}

func TestOneToOne(t *testing.T) {
	t1, t2 := OneToOne(100)
	if len(t1) != 50 || len(t2) != 50 {
		t.Fatalf("sizes %d/%d", len(t1), len(t2))
	}
	if m := outputSize(t1, t2); m != 50 {
		t.Fatalf("m = %d, want 50", m)
	}
}

func TestOneToOneOdd(t *testing.T) {
	t1, t2 := OneToOne(7)
	if len(t1)+len(t2) != 7 {
		t.Fatalf("total = %d", len(t1)+len(t2))
	}
	if m := outputSize(t1, t2); m != 3 {
		t.Fatalf("m = %d, want 3", m)
	}
}

func TestPowerLawDeterministicAndSized(t *testing.T) {
	a1, a2 := PowerLaw(200, 2.0, 42)
	b1, b2 := PowerLaw(200, 2.0, 42)
	if len(a1) != len(b1) || len(a2) != len(b2) {
		t.Fatal("not deterministic")
	}
	if len(a1)+len(a2) != 200 {
		t.Fatalf("total = %d, want 200", len(a1)+len(a2))
	}
	c1, _ := PowerLaw(200, 2.0, 43)
	if len(c1) == len(a1) {
		// Different seeds will usually differ; equal lengths alone are
		// possible, so compare contents too before declaring sameness.
		same := true
		for i := range c1 {
			if c1[i] != a1[i] {
				same = false
				break
			}
		}
		if same && len(a1) > 0 {
			t.Fatal("different seeds produced identical tables")
		}
	}
}

func TestPowerLawHasSkew(t *testing.T) {
	t1, t2 := PowerLaw(2000, 2.0, 7)
	counts := map[uint64]int{}
	for _, r := range append(append([]table.Row{}, t1...), t2...) {
		counts[r.J]++
	}
	max, n1s := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c == 1 {
			n1s++
		}
	}
	if max < 10 {
		t.Fatalf("no heavy group (max=%d); not a power law", max)
	}
	if n1s < 10 {
		t.Fatalf("too few singleton groups (%d)", n1s)
	}
}

func TestPKFK(t *testing.T) {
	pk, fk := PKFK(10, 100, 1)
	seen := map[uint64]bool{}
	for _, r := range pk {
		if seen[r.J] {
			t.Fatal("duplicate primary key")
		}
		seen[r.J] = true
	}
	for _, r := range fk {
		if !seen[r.J] {
			t.Fatalf("foreign key %d has no primary", r.J)
		}
	}
	if m := outputSize(pk, fk); m != 100 {
		t.Fatalf("m = %d, want 100 (every FK matches exactly one PK)", m)
	}
}

func TestMatchingPairsRegime(t *testing.T) {
	t1, t2 := MatchingPairs(1000)
	m := outputSize(t1, t2)
	if m != len(t1) || len(t1) != len(t2) {
		t.Fatalf("regime broken: n1=%d n2=%d m=%d", len(t1), len(t2), m)
	}
}

func TestEqualOutputClassesAreConsistent(t *testing.T) {
	for _, c := range EqualOutputClasses() {
		if len(c.Variants) < 2 {
			t.Fatalf("class %q has %d variants; need ≥2 to test anything", c.Name, len(c.Variants))
		}
		// Every variant must have the declared public parameters.
		for i, gen := range c.Variants {
			t1, t2 := gen()
			if len(t1) != c.N1 || len(t2) != c.N2 {
				t.Fatalf("class %q variant %d: sizes (%d,%d), declared (%d,%d)",
					c.Name, i, len(t1), len(t2), c.N1, c.N2)
			}
			if m := outputSize(t1, t2); m != c.M {
				t.Fatalf("class %q variant %d: m=%d, declared %d", c.Name, i, m, c.M)
			}
		}
	}
}

func TestRowPayloadsUnique(t *testing.T) {
	t1, t2 := PowerLaw(500, 2.0, 11)
	seen := map[table.Data]bool{}
	for _, r := range append(append([]table.Row{}, t1...), t2...) {
		if seen[r.D] {
			t.Fatalf("duplicate payload %q", table.DataString(r.D))
		}
		seen[r.D] = true
	}
}
