package exec

import (
	"errors"
	"fmt"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/table"
)

// tap is a pass-through Streamer for the driver tests: it wraps the
// stream it is handed so the test sees how many rows the downstream
// stage pulled through it and how often that stage closed it, and can
// make the stream fail on a chosen batch.
type tap struct {
	name   string
	failAt int // Next call (1-based) that fails; 0 never
	taps   *[]*tapped
}

var errInjected = errors.New("injected mid-stream error")

func (p tap) Name() string { return "tap(" + p.name + ")" }

func (p tap) RunStream(_ *Context, src RowSource) (RowSource, error) {
	tp := &tapped{tap: p, src: src}
	*p.taps = append(*p.taps, tp)
	return tp, nil
}

type tapped struct {
	tap
	src                 RowSource
	calls, rows, closed int
}

func (s *tapped) Len() int { return s.src.Len() }

func (s *tapped) Next() (Batch, error) {
	if s.calls++; s.calls == s.failAt {
		return nil, errInjected
	}
	b, err := s.src.Next()
	s.rows += len(b)
	return b, err
}

func (s *tapped) Close() {
	s.closed++
	s.src.Close()
}

// seqRows builds n rows with keys first, first+1, … and a tagged
// payload short enough to survive two rekeys.
func seqRows(first, n int, tag string) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{J: uint64(first + i), D: table.MustData(fmt.Sprintf("%s%d", tag, i))}
	}
	return rows
}

// TestDriverHandOffs drives every kind of stage hand-off — source →
// streamer, stream → join → pairs → rekey source → join, stream → an
// aggregate, and Limit's dummy drain — across more than two batches,
// once to completion and once with the stream failing on its second
// batch. Either way every stream a stage was handed is closed exactly
// once. A completed run leaves nothing charged to the gauge: every
// stage released its stores and the driver discharged its hand-offs.
func TestDriverHandOffs(t *testing.T) {
	const n = 2*DefaultBatch + 7
	tables := map[string][]table.Row{
		"a": seqRows(0, n, "a"),
		"b": seqRows(0, n, "b"),
		"c": seqRows(0, n, "c"),
	}
	odd := func(r table.Row) uint64 { return obliv.Eq(r.J%2, 1) }
	proj := Project{Items: []ProjItem{{Col: ColKey}, {Col: ColData}}}
	projPairs := Project{Items: []ProjItem{{Col: ColKey}, {Col: ColLeftData}, {Col: ColRightData}}}
	projCount := Project{Items: []ProjItem{{Col: ColKey}, {Agg: AggCount}}}

	cases := []struct {
		name     string
		pipeline func(tp func(string) tap) []Operator
		rows     int   // result rows of the complete run
		pulled   []int // rows each tap saw pulled through it
	}{
		{"source-to-streamer", func(tp func(string) tap) []Operator {
			return []Operator{Scan{Table: "a"}, tp("scan"), Filter{Pred: odd}, tp("filter"), Distinct{}, tp("distinct"), proj}
		}, n / 2, []int{n, n / 2, n / 2}},
		{"pairs-to-rekey-source", func(tp func(string) tap) []Operator {
			return []Operator{Scan{Table: "a"}, tp("scan"), Join{Table: "b"}, Rekey{First: true}, tp("rekey"), Join{Table: "c"}, Sort{Free: true}, projPairs}
		}, n, []int{n, n}},
		{"stream-to-group-by", func(tp func(string) tap) []Operator {
			return []Operator{Scan{Table: "a"}, tp("scan"), Sort{}, tp("sort"), GroupBy{}, Limit{N: 3}, projCount}
		}, 3, []int{n, n}},
		{"stream-to-join-aggregate", func(tp func(string) tap) []Operator {
			return []Operator{Scan{Table: "a"}, tp("scan"), Filter{Pred: odd}, tp("filter"), JoinAggregate{Table: "b"}, projCount}
		}, n / 2, []int{n, n / 2}},
		{"limit-dummy-drain", func(tp func(string) tap) []Operator {
			return []Operator{Scan{Table: "a"}, tp("scan"), Sort{}, tp("sort"), Limit{N: 5}, tp("limit"), proj}
		}, 5, []int{n, n, 5}},
	}
	for _, c := range cases {
		for _, fail := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fail=%t", c.name, fail), func(t *testing.T) {
				g := &table.Gauge{}
				plain := table.PlainAlloc(memory.NewSpace(nil, nil))
				var stores []table.Store // every store the run allocates
				alloc := func(n int) table.Store {
					st := plain(n)
					stores = append(stores, st)
					return st
				}
				ctx := &Context{
					Cfg:    &core.Config{Alloc: table.TrackedAlloc(alloc, g), Mem: g},
					Tables: tables,
				}
				var taps []*tapped
				first := true
				pipeline := c.pipeline(func(name string) tap {
					tp := tap{name: name, taps: &taps}
					if fail && first {
						tp.failAt = 2
					}
					first = false
					return tp
				})

				d := NewDriver(ctx, g, nil)
				var err error
				for _, op := range pipeline {
					if err = d.Step(op); err != nil {
						break
					}
				}
				if fail {
					if !errors.Is(err, errInjected) {
						t.Fatalf("err = %v, want the injected one", err)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					res, err := d.Result()
					if err != nil || len(res.Rows) != c.rows || d.OutRows() != c.rows {
						t.Fatalf("result: %d rows, OutRows %d (%v), want %d", len(res.Rows), d.OutRows(), err, c.rows)
					}
					if g.Peak() == 0 {
						t.Fatal("nothing was ever charged")
					}
					for i, tp := range taps {
						if tp.rows != c.pulled[i] {
							t.Errorf("%s: %d rows pulled through, want %d", tp.Name(), tp.rows, c.pulled[i])
						}
					}
				}
				// The end of a run. A failed run abandons the store its
				// failed fill was building, which dies with the run's
				// gauge; releasing every store then leaves only the
				// driver's hand-off charges, which must balance.
				d.Close()
				if fail {
					for _, st := range stores {
						g.Release(st)
					}
				}
				if !drained(g) {
					t.Error("bytes still charged (or discharged twice) after the run")
				}
				for _, tp := range taps {
					if tp.closed != 1 {
						t.Errorf("%s closed %d times, want exactly once", tp.Name(), tp.closed)
					}
				}
			})
		}
	}
}

// drained reports whether g has exactly zero bytes outstanding, read
// through its peak: after two charges of q = peak+1 the peak is 2q
// when nothing is outstanding, more when something is still charged,
// and less when something was discharged twice. It consumes g.
func drained(g *table.Gauge) bool {
	q := g.Peak() + 1
	g.Charge(q)
	g.Charge(q)
	return g.Peak() == 2*q
}

// TestDriverRejectsMalformedPipelines: a stage meeting an input it has
// no execution form for is an engine fault, not a silent no-op.
func TestDriverRejectsMalformedPipelines(t *testing.T) {
	tables := map[string][]table.Row{"a": rowsOf(1, 2), "b": rowsOf(2)}
	for name, pipeline := range map[string][]Operator{
		"rekey of a stream":     {Scan{Table: "a"}, Rekey{}},
		"join of pairs":         {Scan{Table: "a"}, Join{Table: "b"}, Join{Table: "b"}},
		"filter of pairs":       {Scan{Table: "a"}, Join{Table: "b"}, Filter{}},
		"sort of pairs":         {Scan{Table: "a"}, Join{Table: "b"}, Sort{}},
		"group-by of pairs":     {Scan{Table: "a"}, Join{Table: "b"}, GroupBy{}},
		"no project at the end": {Scan{Table: "a"}},
	} {
		d := NewDriver(testCtx(tables), nil, nil)
		var err error
		for _, op := range pipeline {
			if err = d.Step(op); err != nil {
				break
			}
		}
		if err == nil {
			_, err = d.Result()
		}
		if !errors.Is(err, ErrInternal) {
			t.Errorf("%s: err = %v, want ErrInternal", name, err)
		}
		d.Close()
	}
}
