package aggregate

import (
	"math/rand"
	"strconv"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// valueRows builds rows whose payloads are the decimal values.
func valueRows(vals []uint64, key []uint64) []table.Row {
	rows := make([]table.Row, len(vals))
	for i := range vals {
		rows[i] = table.Row{J: key[i], D: table.MustData(strconv.FormatUint(vals[i], 10))}
	}
	return rows
}

func joinSums(t *testing.T, cfg *core.Config, rows1, rows2 []table.Row) []JoinSum {
	t.Helper()
	sums, err := JoinGroupSums(cfg, &feed{rows: rows1}, &feed{rows: rows2}, decimal)
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func TestJoinGroupSumsFixed(t *testing.T) {
	// Group 1: T1 values {10, 20} (α1=2), T2 values {3} (α2=1).
	// Group 2: T1 {5} (α1=1), T2 {7, 8} (α2=2).
	// Group 3 is in T1 only, group 4 in T2 only: neither is output.
	r1 := valueRows([]uint64{10, 20, 5, 99}, []uint64{1, 1, 2, 3})
	r2 := valueRows([]uint64{3, 7, 8, 99}, []uint64{1, 2, 2, 4})
	sums := joinSums(t, plainCfg(), r1, r2)
	if len(sums) != 2 {
		t.Fatalf("sums = %+v", sums)
	}
	g1, g2 := sums[0], sums[1]
	if g1.J != 1 || g1.SumLeft != sum(30) || g1.SumRight != sum(3) || g1.Pairs != 2 {
		t.Fatalf("group 1 = %+v", g1)
	}
	if g2.J != 2 || g2.SumLeft != sum(5) || g2.SumRight != sum(15) || g2.Pairs != 2 {
		t.Fatalf("group 2 = %+v", g2)
	}
	// SUM(left value over join) = α2·SumLeft per group: 1·30 + 2·5 = 40.
	if l := g1.LeftTotal().Lo + g2.LeftTotal().Lo; l != 40 {
		t.Fatalf("left total = %d", l)
	}
	// SUM(right value over join) = α1·SumRight: 2·3 + 1·15 = 21.
	if r := g1.RightTotal().Lo + g2.RightTotal().Lo; r != 21 {
		t.Fatalf("right total = %d", r)
	}
}

// TestJoinGroupSumsAgainstMaterializedJoin cross-checks the no-expansion
// totals against actually materializing the join.
func TestJoinGroupSumsAgainstMaterializedJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n1, n2 := 10+rng.Intn(30), 10+rng.Intn(30)
		keys1 := make([]uint64, n1)
		vals1 := make([]uint64, n1)
		for i := range keys1 {
			keys1[i] = uint64(rng.Intn(6))
			vals1[i] = uint64(rng.Intn(50))
		}
		keys2 := make([]uint64, n2)
		vals2 := make([]uint64, n2)
		for i := range keys2 {
			keys2[i] = uint64(rng.Intn(6))
			vals2[i] = uint64(rng.Intn(50))
		}

		sums := joinSums(t, plainCfg(), valueRows(vals1, keys1), valueRows(vals2, keys2))
		var gotLeft, gotRight uint64
		for _, s := range sums {
			gotLeft += s.LeftTotal().Lo
			gotRight += s.RightTotal().Lo
		}

		var wantLeft, wantRight uint64
		for i := range keys1 {
			for j := range keys2 {
				if keys1[i] == keys2[j] {
					wantLeft += vals1[i]
					wantRight += vals2[j]
				}
			}
		}
		if gotLeft != wantLeft || gotRight != wantRight {
			t.Fatalf("trial %d: totals (%d,%d), want (%d,%d)",
				trial, gotLeft, gotRight, wantLeft, wantRight)
		}
	}
}

func TestJoinGroupSumsOblivious(t *testing.T) {
	run := func(k1, k2 []uint64) string {
		r1 := valueRows(make([]uint64, len(k1)), k1)
		r2 := valueRows(make([]uint64, len(k2)), k2)
		h := trace.NewHasher()
		sp := memory.NewSpace(h, nil)
		joinSums(t, &core.Config{Alloc: table.PlainAlloc(sp)}, r1, r2)
		return h.Hex()
	}
	// Same sizes, same number of joinable groups.
	a := run([]uint64{1, 1, 2, 3}, []uint64{1, 2, 2, 9})
	b := run([]uint64{5, 6, 6, 6}, []uint64{5, 5, 5, 6}) // 2 joinable groups both sides
	if a != b {
		t.Fatal("JoinGroupSums trace depends on structure")
	}
}

func TestJoinGroupSumsEmpty(t *testing.T) {
	if got := joinSums(t, plainCfg(), nil, nil); len(got) != 0 {
		t.Fatalf("got %+v", got)
	}
}
