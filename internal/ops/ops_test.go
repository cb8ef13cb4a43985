package ops

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

func sp() *core.Config {
	return &core.Config{Alloc: table.PlainAlloc(memory.NewSpace(nil, nil))}
}

func rows(keys ...uint64) []table.Row {
	out := make([]table.Row, len(keys))
	for i, k := range keys {
		out[i] = table.Row{J: k, D: table.MustData(fmt.Sprintf("d%d.%d", k, i))}
	}
	return out
}

func keysOf(rs []table.Row) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.J
	}
	return out
}

// load and collect stand in for the executor's batch load and prefix
// drain: rows go into a fresh store, and the first k entries come back.
func load(cfg *core.Config, rows []table.Row) table.Store {
	a := cfg.Alloc(len(rows))
	for i, r := range rows {
		a.Set(i, table.Entry{J: r.J, D: r.D})
	}
	return a
}

func collect(a table.Store, k uint64) []table.Row {
	out := make([]table.Row, k)
	for i := range out {
		e := a.Get(i)
		out[i] = table.Row{J: e.J, D: e.D}
	}
	return out
}

func filter(cfg *core.Config, rows []table.Row, pred Predicate) []table.Row {
	a := load(cfg, rows)
	return collect(a, FilterStore(cfg, a, pred))
}

func distinct(cfg *core.Config, rows []table.Row) []table.Row {
	a := load(cfg, rows)
	return collect(a, DistinctStore(cfg, a))
}

// semijoin loads the tagged concatenation SemijoinStore expects: right
// rows with TID 1, then left rows with TID 2.
func semijoin(cfg *core.Config, left, right []table.Row) []table.Row {
	a := cfg.Alloc(len(left) + len(right))
	for i, r := range right {
		a.Set(i, table.Entry{J: r.J, D: r.D, TID: 1})
	}
	for i, r := range left {
		a.Set(len(right)+i, table.Entry{J: r.J, D: r.D, TID: 2})
	}
	return collect(a, SemijoinStore(cfg, a))
}

func TestFilterKeepsMatching(t *testing.T) {
	in := rows(1, 5, 2, 8, 3, 9)
	got := filter(sp(), in, func(r table.Row) uint64 { return obliv.Less(r.J, 5) })
	want := []uint64{1, 2, 3}
	if fmt.Sprint(keysOf(got)) != fmt.Sprint(want) {
		t.Fatalf("keys = %v, want %v", keysOf(got), want)
	}
	// Input order preserved, payloads intact.
	if table.DataString(got[0].D) != "d1.0" {
		t.Fatalf("payload = %q", table.DataString(got[0].D))
	}
}

func TestFilterAllAndNone(t *testing.T) {
	in := rows(1, 2, 3)
	if got := filter(sp(), in, func(table.Row) uint64 { return 1 }); len(got) != 3 {
		t.Fatalf("keep-all returned %d", len(got))
	}
	if got := filter(sp(), in, func(table.Row) uint64 { return 0 }); len(got) != 0 {
		t.Fatalf("keep-none returned %d", len(got))
	}
}

func TestFilterEmpty(t *testing.T) {
	if got := filter(sp(), nil, func(table.Row) uint64 { return 1 }); len(got) != 0 {
		t.Fatal("empty filter nonempty")
	}
}

func TestFilterProperty(t *testing.T) {
	f := func(keys []uint8, threshold uint8) bool {
		if len(keys) > 100 {
			keys = keys[:100]
		}
		in := make([]table.Row, len(keys))
		for i, k := range keys {
			in[i] = table.Row{J: uint64(k), D: table.MustData(fmt.Sprintf("%d", i))}
		}
		got := filter(sp(), in, func(r table.Row) uint64 {
			return obliv.Less(r.J, uint64(threshold))
		})
		var want []table.Row
		for _, r := range in {
			if r.J < uint64(threshold) {
				want = append(want, r)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterOblivious(t *testing.T) {
	run := func(keys []uint64, threshold uint64) string {
		h := trace.NewHasher()
		s := &core.Config{Alloc: table.PlainAlloc(memory.NewSpace(h, nil))}
		filter(s, rows(keys...), func(r table.Row) uint64 {
			return obliv.Less(r.J, threshold)
		})
		return h.Hex()
	}
	// Same n, same k: traces equal regardless of WHICH rows pass.
	a := run([]uint64{1, 2, 9, 9}, 5) // first two pass
	b := run([]uint64{9, 9, 1, 2}, 5) // last two pass
	if a != b {
		t.Fatal("filter trace depends on which rows pass")
	}
}

func TestDistinct(t *testing.T) {
	in := []table.Row{
		{J: 2, D: table.MustData("x")},
		{J: 1, D: table.MustData("y")},
		{J: 2, D: table.MustData("x")},
		{J: 2, D: table.MustData("z")},
		{J: 1, D: table.MustData("y")},
	}
	got := distinct(sp(), in)
	if len(got) != 3 {
		t.Fatalf("distinct = %v", got)
	}
	want := []table.Row{
		{J: 1, D: table.MustData("y")},
		{J: 2, D: table.MustData("x")},
		{J: 2, D: table.MustData("z")},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDistinctProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		if len(keys) > 80 {
			keys = keys[:80]
		}
		in := make([]table.Row, len(keys))
		for i, k := range keys {
			in[i] = table.Row{J: uint64(k % 8)} // zero payloads, many dups
		}
		got := distinct(sp(), in)
		uniq := map[uint64]bool{}
		for _, r := range in {
			uniq[r.J] = true
		}
		if len(got) != len(uniq) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].J >= got[i].J {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSemijoin(t *testing.T) {
	left := rows(1, 2, 2, 3, 4)
	right := rows(2, 4, 9)
	got := semijoin(sp(), left, right)
	want := []uint64{2, 2, 4}
	if fmt.Sprint(keysOf(got)) != fmt.Sprint(want) {
		t.Fatalf("semijoin keys = %v, want %v", keysOf(got), want)
	}
	for _, r := range got {
		if r.J == 9 {
			t.Fatal("right-only row leaked into semijoin output")
		}
	}
}

func TestSemijoinEmptySides(t *testing.T) {
	if got := semijoin(sp(), nil, rows(1)); len(got) != 0 {
		t.Fatal("nil left")
	}
	if got := semijoin(sp(), rows(1), nil); len(got) != 0 {
		t.Fatal("nil right must eliminate everything")
	}
}

func TestSemijoinProperty(t *testing.T) {
	f := func(l, r []uint8) bool {
		if len(l) > 60 {
			l = l[:60]
		}
		if len(r) > 60 {
			r = r[:60]
		}
		left := make([]table.Row, len(l))
		for i, k := range l {
			left[i] = table.Row{J: uint64(k % 10), D: table.MustData(fmt.Sprintf("L%d", i))}
		}
		right := make([]table.Row, len(r))
		for i, k := range r {
			right[i] = table.Row{J: uint64(k % 10), D: table.MustData(fmt.Sprintf("R%d", i))}
		}
		got := semijoin(sp(), left, right)
		inRight := map[uint64]bool{}
		for _, x := range right {
			inRight[x.J] = true
		}
		var want []table.Row
		for _, x := range left {
			if inRight[x.J] {
				want = append(want, x)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].J != want[j].J {
				return want[i].J < want[j].J
			}
			return string(want[i].D[:]) < string(want[j].D[:])
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSemijoinOblivious(t *testing.T) {
	run := func(l, r []uint64) string {
		h := trace.NewHasher()
		s := &core.Config{Alloc: table.PlainAlloc(memory.NewSpace(h, nil))}
		semijoin(s, rows(l...), rows(r...))
		return h.Hex()
	}
	// n_left=4, n_right=2, k=2 in both runs.
	a := run([]uint64{1, 2, 3, 4}, []uint64{1, 2})
	b := run([]uint64{5, 6, 7, 8}, []uint64{7, 8})
	if a != b {
		t.Fatal("semijoin trace depends on which keys match")
	}
}

func TestSortByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := make([]table.Row, 50)
	for i := range in {
		in[i] = table.Row{J: uint64(rng.Intn(10)), D: table.MustData(fmt.Sprintf("%02d", i))}
	}
	cfg := sp()
	a := load(cfg, in)
	got := collect(a, SortByKeyStore(cfg, a))
	if len(got) != len(in) {
		t.Fatal("length changed")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].J > got[i].J {
			t.Fatal("not sorted")
		}
		if got[i-1].J == got[i].J && string(got[i-1].D[:]) > string(got[i].D[:]) {
			t.Fatal("ties not broken by data")
		}
	}
	// Input untouched.
	if in[0].J != uint64(func() int { r := rand.New(rand.NewSource(4)); return r.Intn(10) }()) {
		t.Fatal("input mutated")
	}
}
