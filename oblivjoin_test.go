package oblivjoin

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"oblivjoin/internal/workload"
)

func buildTables(t *testing.T) (*Table, *Table) {
	t.Helper()
	left := NewTable()
	left.MustAppend(1, "alice")
	left.MustAppend(2, "bob")
	left.MustAppend(2, "beth")
	right := NewTable()
	right.MustAppend(2, "order-a")
	right.MustAppend(2, "order-b")
	right.MustAppend(3, "order-c")
	return left, right
}

func pairSet(ps []Pair) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Left + "|" + p.Right
	}
	sort.Strings(out)
	return out
}

func wantPairs() []string {
	return []string{"beth|order-a", "beth|order-b", "bob|order-a", "bob|order-b"}
}

func TestJoinDefault(t *testing.T) {
	left, right := buildTables(t)
	res, err := Join(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(res.Pairs)
	want := wantPairs()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	left, right := buildTables(t)
	want := strings.Join(wantPairs(), ",")
	for _, alg := range []Algorithm{
		AlgorithmOblivious, AlgorithmSortMerge, AlgorithmNestedLoop, AlgorithmORAM,
	} {
		res, err := Join(left, right, &Options{Algorithm: alg, Seed: 42})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := strings.Join(pairSet(res.Pairs), ","); got != want {
			t.Fatalf("%v: pairs = %v, want %v", alg, got, want)
		}
	}
}

func TestOpaqueRequiresPrimaryKey(t *testing.T) {
	left, right := buildTables(t) // left has key 2 twice
	if _, err := Join(left, right, &Options{Algorithm: AlgorithmOpaque}); err != ErrNotPrimaryKey {
		t.Fatalf("err = %v, want ErrNotPrimaryKey", err)
	}
	pk := NewTable()
	pk.MustAppend(1, "p1")
	pk.MustAppend(2, "p2")
	res, err := Join(pk, right, &Options{Algorithm: AlgorithmOpaque})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("m = %d, want 2", len(res.Pairs))
	}
}

func TestOptionsVariants(t *testing.T) {
	left, right := buildTables(t)
	want := strings.Join(wantPairs(), ",")
	for _, opts := range []*Options{
		{Probabilistic: true, Seed: 7},
		{MergeExchange: true},
		{Encrypted: true},
		{Probabilistic: true, MergeExchange: true, Encrypted: true, Seed: 3},
	} {
		res, err := Join(left, right, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got := strings.Join(pairSet(res.Pairs), ","); got != want {
			t.Fatalf("%+v: pairs wrong", opts)
		}
	}
}

func TestCollectStats(t *testing.T) {
	left, right := buildTables(t)
	res, err := Join(left, right, &Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("Stats nil")
	}
	if st.N1 != 3 || st.N2 != 3 || st.M != 4 {
		t.Fatalf("sizes %+v", st)
	}
	if st.SortComparisons == 0 || st.RouteOps == 0 {
		t.Fatalf("instrumentation empty: %+v", st)
	}
	if len(st.Phases) == 0 {
		t.Fatal("phases empty")
	}
}

func TestTraceHashEqualWithinClass(t *testing.T) {
	for _, cl := range workload.EqualOutputClasses() {
		var first string
		for i, gen := range cl.Variants {
			r1, r2 := gen()
			res, err := Join(FromRows(r1), FromRows(r2), &Options{TraceHash: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.TraceHash == "" {
				t.Fatal("TraceHash empty")
			}
			if i == 0 {
				first = res.TraceHash
			} else if res.TraceHash != first {
				t.Fatalf("class %q: variant %d hash differs", cl.Name, i)
			}
		}
	}
}

func TestSGXSimReportsTime(t *testing.T) {
	left, right := buildTables(t)
	res, err := Join(left, right, &Options{SGXSim: true, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("SimulatedTime not populated")
	}
	if res.Stats.Accesses == 0 {
		t.Fatal("Accesses not populated")
	}
}

func TestOutputSize(t *testing.T) {
	left, right := buildTables(t)
	if m := OutputSize(left, right); m != 4 {
		t.Fatalf("OutputSize = %d, want 4", m)
	}
}

func TestAppendTooLong(t *testing.T) {
	tb := NewTable()
	if err := tb.Append(1, strings.Repeat("x", MaxDataLen+1)); err == nil {
		t.Fatal("expected ErrDataTooLong")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgorithmOblivious: "oblivious", AlgorithmSortMerge: "sort-merge",
		AlgorithmNestedLoop: "nested-loop", AlgorithmOpaque: "opaque",
		AlgorithmORAM: "oram", Algorithm(99): "Algorithm(99)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", int(a), a.String())
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	left, right := buildTables(t)
	if _, err := Join(left, right, &Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadWriteCSV(t *testing.T) {
	in := "key,val\n1,alpha\n2,beta\n"
	tb, err := ReadCSV(strings.NewReader(in), 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	other := NewTable()
	other.MustAppend(2, "two")
	res, err := Join(tb, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "beta,two\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("notanumber,x\n"), 0, 1, false); err == nil {
		t.Fatal("expected key parse error")
	}
	if _, err := ReadCSV(strings.NewReader("1\n"), 0, 1, false); err == nil {
		t.Fatal("expected missing-column error")
	}
	long := strings.Repeat("z", MaxDataLen+1)
	if _, err := ReadCSV(strings.NewReader("1,"+long+"\n"), 0, 1, false); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestEmptyJoin(t *testing.T) {
	res, err := Join(NewTable(), NewTable(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("pairs = %v", res.Pairs)
	}
}

// TestJoinAccessPatternPinned pins the oblivious join's public
// footprint at fixed sizes: the access-pattern hash, the comparator and
// route-op counts, the output size and the simulated enclave time are
// all functions of (n1, n2, m) alone, so any change to the pipeline's
// schedule shows here. The (2100, 2100) case fills TC in more than one
// table.Builder chunk. The hash comes from a run without SGXSim, whose
// traced stores defer the fill's events through a trace shard; the
// simulated time from a second run with it.
func TestJoinAccessPatternPinned(t *testing.T) {
	cases := []struct {
		name      string
		n1, n2    int
		encrypted bool
		hash      string
		cmp, rops uint64
		m         int
		sim       time.Duration
	}{
		{"plain/1x1", 1, 1, false, "6b0167ca9ee9f15737b1f04b5c25ba3dc99abdea07be0f8b767bdc15e1089c13", 2, 0, 1, 3060},
		{"plain/1023x1025", 1023, 1025, false, "cd32889564b10c2ff3b9aab56c3ccb28c57e771a3bea328500d34d2cc835abcf", 219681, 18456, 1025, 88126380},
		{"plain/2100x2100", 2100, 2100, false, "43b5121eff0bfa3faed4edb9f8e8b0acef15639fab8ed80d8eabf29cc2d11d8e", 530742, 42210, 2100, 211176720},
		{"encrypted/1023x1025", 1023, 1025, true, "cd32889564b10c2ff3b9aab56c3ccb28c57e771a3bea328500d34d2cc835abcf", 219681, 18456, 1025, 88126380},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r1, r2 := workload.PKFK(c.n1, c.n2, 7)
			res, err := Join(FromRows(r1), FromRows(r2), &Options{
				Encrypted: c.encrypted, TraceHash: true, CollectStats: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Join(FromRows(r1), FromRows(r2), &Options{Encrypted: c.encrypted, SGXSim: true})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if res.TraceHash != c.hash || st.SortComparisons != c.cmp || st.RouteOps != c.rops ||
				st.M != c.m || sim.SimulatedTime != c.sim {
				t.Fatalf("got hash %s cmp %d route %d m %d sim %d; want %s %d %d %d %d",
					res.TraceHash, st.SortComparisons, st.RouteOps, st.M, int64(sim.SimulatedTime),
					c.hash, c.cmp, c.rops, c.m, int64(c.sim))
			}
		})
	}
}
