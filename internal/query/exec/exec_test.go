package exec

import (
	"strings"
	"testing"

	"oblivjoin/internal/aggregate"
	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
)

func testCtx(tables map[string][]table.Row) *Context {
	sp := memory.NewSpace(nil, nil)
	return &Context{
		Cfg:    &core.Config{Alloc: table.PlainAlloc(sp)},
		Tables: tables,
	}
}

func rowsOf(keys ...uint64) []table.Row {
	out := make([]table.Row, len(keys))
	for i, k := range keys {
		out[i] = table.Row{J: k, D: table.MustData("d")}
	}
	return out
}

// drain collects a stream into one slice, copying out of the reused
// batch buffers.
func drain(t *testing.T, src RowSource) []table.Row {
	t.Helper()
	var out []table.Row
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		out = append(out, b...)
	}
}

func TestScanUnknownTable(t *testing.T) {
	ctx := testCtx(map[string][]table.Row{})
	if _, err := (Scan{Table: "ghost"}).Source(ctx); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

func TestLimitTruncatesEveryKind(t *testing.T) {
	for _, n := range []int{2, 9} {
		src, err := (Limit{N: n}).RunStream(nil, newSliceSource(nil, rowsOf(1, 2, 3)))
		if err != nil {
			t.Fatal(err)
		}
		if want := min(n, 3); src.Len() != want || len(drain(t, src)) != want {
			t.Fatalf("row stream under limit %d: Len = %d, want %d", n, src.Len(), want)
		}
	}
	rels := []Relation{
		{Kind: KindPairs, Pairs: make([]table.KeyedPair, 3)},
		{Kind: KindGroups, Groups: make([]aggregate.Group, 3)},
		{Kind: KindJoinStats, JoinStats: make([]aggregate.JoinStat, 3)},
		{Kind: KindJoinSums, JoinSums: make([]aggregate.JoinSum, 3)},
	}
	for _, rel := range rels {
		out, err := (Limit{N: 2}).Run(nil, rel)
		if err != nil {
			t.Fatal(err)
		}
		if out.Size() != 2 {
			t.Fatalf("kind %d: size = %d, want 2", rel.Kind, out.Size())
		}
		// Limit beyond the size is a no-op.
		same, err := (Limit{N: 9}).Run(nil, rel)
		if err != nil || same.Size() != 3 {
			t.Fatalf("kind %d: over-limit size = %d (%v)", rel.Kind, same.Size(), err)
		}
	}
}

func TestRekeyConcatenatesAndOverflows(t *testing.T) {
	closed := 0
	src := (Rekey{}).Source(nil, []table.KeyedPair{
		{J: 7, D1: table.MustData("ab"), D2: table.MustData("cd")},
	}, func() { closed++ })
	out := drain(t, src)
	if len(out) != 1 || table.DataString(out[0].D) != "ab+cd" || out[0].J != 7 {
		t.Fatalf("rekeyed = %+v", out)
	}
	src.Close()
	if closed != 1 {
		t.Fatalf("onClose ran %d times over a full drain and a Close, want 1", closed)
	}

	long := strings.Repeat("x", table.DataLen)
	src = (Rekey{}).Source(nil, []table.KeyedPair{
		{J: 1, D1: table.MustData(long), D2: table.MustData("y")},
	}, nil)
	if _, err := src.Next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want overflow error", err)
	}
}

func TestCheckNumericPayloadsListsValues(t *testing.T) {
	mk := func(vals ...string) RowSource {
		out := make([]table.Row, len(vals))
		for i, v := range vals {
			out[i] = table.Row{J: uint64(i), D: table.MustData(v)}
		}
		return newSliceSource(nil, out)
	}
	// check wraps every stream in one numericCheck and drains them in
	// turn, as a join aggregate's feeds are drained; only the last one
	// to end may fail.
	check := func(srcs ...RowSource) error {
		var c numericCheck
		for i := range srcs {
			srcs[i] = c.wrap(srcs[i])
		}
		for i, src := range srcs {
			for {
				b, err := src.Next()
				if err != nil {
					if i < len(srcs)-1 {
						t.Fatalf("stream %d of %d failed before the last one ended: %v", i+1, len(srcs), err)
					}
					return err
				}
				if b == nil {
					break
				}
			}
		}
		return nil
	}
	if err := check(mk("1", "22", "333")); err != nil {
		t.Fatalf("numeric payloads rejected: %v", err)
	}
	err := check(mk("1", "bad", "bad"), mk("worse", "3"))
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, `"worse"`) {
		t.Fatalf("error %q does not list both distinct values", msg)
	}
	if strings.Count(msg, `"bad"`) != 1 {
		t.Fatalf("error %q repeats duplicate values", msg)
	}
	// More than five distinct offenders: the list is capped and counted.
	err = check(mk("a", "b", "c", "d", "e", "f", "g"))
	if err == nil || !strings.Contains(err.Error(), "7 distinct values") || strings.Contains(err.Error(), `"f"`) {
		t.Fatalf("err = %v, want the first five and a truncation note", err)
	}
}

func TestProjectErrorsOnUnavailableColumns(t *testing.T) {
	// data over a join is ambiguous.
	in := Relation{Kind: KindPairs, Pairs: make([]table.KeyedPair, 1)}
	_, err := (Project{Items: []ProjItem{{Col: ColData}}}).Run(nil, in)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
	// left.data without a join.
	_, err = (Project{Items: []ProjItem{{Col: ColLeftData}}}).RunStream(nil, newSliceSource(nil, rowsOf(1)), nil)
	if err == nil || !strings.Contains(err.Error(), "without JOIN") {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineComposition(t *testing.T) {
	ctx := testCtx(map[string][]table.Row{
		"l": rowsOf(1, 2, 2),
		"r": rowsOf(2, 2, 3),
	})
	pipeline := []Operator{
		Scan{Table: "l"},
		Join{Table: "r"},
		Limit{N: 3},
		Project{Items: []ProjItem{{Col: ColKey}, {Col: ColLeftData}, {Col: ColRightData}}},
	}
	d := NewDriver(ctx, nil, nil)
	for _, op := range pipeline {
		if err := d.Step(op); err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
	}
	res, err := d.Result()
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("result = %+v (%v)", res, err)
	}
	if got := strings.Join(res.Columns, ","); got != "key,left.data,right.data" {
		t.Fatalf("columns = %s", got)
	}
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"", "a", "abc", "a+b", "+", "++", `\`, `\\`, `\+`, `a\+b+c\`,
	} {
		enc := encodeSegment(s)
		dec, bare := decodeSegment(enc)
		if strings.Contains(bare, RekeySep) {
			t.Errorf("encodeSegment(%q) = %q leaves an unescaped separator", s, enc)
		}
		if dec != s {
			t.Errorf("decode(encode(%q)) = %q", s, dec)
		}
	}
}

// decodeSegment reverses encodeSegment. bare holds the bytes no escape
// covers: the ones a reader would split the accumulation at.
func decodeSegment(s string) (dec, bare string) {
	var d, b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == rekeyEscape && i+1 < len(s) {
			i++
		} else {
			b.WriteByte(s[i])
		}
		d.WriteByte(s[i])
	}
	return d.String(), b.String()
}

func TestCleanPayloadEncodesAsItself(t *testing.T) {
	for _, s := range []string{"", "alice", "a b c", "123"} {
		if enc := encodeSegment(s); enc != s {
			t.Errorf("encodeSegment(%q) = %q, want unchanged", s, enc)
		}
	}
}
