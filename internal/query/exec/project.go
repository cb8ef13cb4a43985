package exec

import (
	"fmt"
	"strconv"

	"oblivjoin/internal/table"
)

// Col names a projectable column, mirrored from the front end's AST so
// this package stays independent of the parser.
type Col int

const (
	// ColKey is the join/group key.
	ColKey Col = iota
	// ColData is the single payload of a row relation.
	ColData
	// ColLeftData and ColRightData address the two sides of a join.
	ColLeftData
	// ColRightData is the right side's payload.
	ColRightData
)

// Agg names an aggregate over the data column.
type Agg int

const (
	// AggNone marks a plain column item.
	AggNone Agg = iota
	// AggCount is COUNT(*).
	AggCount
	// AggSum, AggMin and AggMax aggregate payload values.
	AggSum
	// AggMin is MIN(data).
	AggMin
	// AggMax is MAX(data).
	AggMax
)

// ProjItem is one output column: a column reference or an aggregate.
// Star expansion happens in the planner, so items are always concrete.
type ProjItem struct {
	Col Col
	Agg Agg
}

func colName(it ProjItem) string {
	switch it.Agg {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	switch it.Col {
	case ColKey:
		return "key"
	case ColLeftData:
		return "left.data"
	case ColRightData:
		return "right.data"
	default:
		return "data"
	}
}

// Project renders the incoming relation as a stringified Result. It is
// always the final operator of a pipeline; everything it touches is
// already the (public) query output.
type Project struct{ Items []ProjItem }

// Name implements Operator.
func (Project) Name() string { return "project" }

// Run implements Whole: the projection of join output and aggregates.
// A row stream goes through RunStream.
func (p Project) Run(ctx *Context, in Relation) (Relation, error) {
	res := &Result{}
	for _, it := range p.Items {
		res.Columns = append(res.Columns, p.columnName(in, it))
	}
	emit, err := p.rowEmitter(in)
	if err != nil {
		return Relation{}, err
	}
	for i := 0; i < in.Size(); i++ {
		if i%probeEvery == 0 {
			probe(ctx)
		}
		row, err := emit(i)
		if err != nil {
			return Relation{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return Relation{Kind: KindResult, Result: res}, nil
}

// RunStream renders a row stream batch by batch. With a sink, batches
// are delivered as they render and the result is never materialized —
// the peak memory of the projection is one batch. Without a sink the
// rows accumulate into a Result. It closes src in all cases.
func (p Project) RunStream(ctx *Context, src RowSource, sink RowSink) (*Result, error) {
	defer src.Close()
	cols := make([]string, 0, len(p.Items))
	for _, it := range p.Items {
		cols = append(cols, p.columnName(Relation{Kind: KindRows}, it))
	}
	var res *Result
	if sink != nil {
		if err := sink.Columns(cols); err != nil {
			return nil, err
		}
	} else {
		res = &Result{Columns: cols}
	}
	for {
		probe(ctx)
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		rel := Relation{Kind: KindRows, Rows: b}
		emit, err := p.rowEmitter(rel)
		if err != nil {
			return nil, err
		}
		out := make([][]string, len(b))
		for i := range b {
			if out[i], err = emit(i); err != nil {
				return nil, err
			}
		}
		if sink != nil {
			if err := sink.Rows(out); err != nil {
				return nil, err
			}
		} else {
			res.Rows = append(res.Rows, out...)
		}
	}
}

// columnName resolves a header, specializing SUM headers over the join
// fast path so both sides stay distinguishable.
func (Project) columnName(in Relation, it ProjItem) string {
	if in.Kind == KindJoinSums && it.Agg == AggSum {
		if it.Col == ColRightData {
			return "sum(right.data)"
		}
		return "sum(left.data)"
	}
	return colName(it)
}

// rowEmitter returns a function producing output row i for the
// relation's shape, or an error when an item is unavailable there.
func (p Project) rowEmitter(in Relation) (func(i int) ([]string, error), error) {
	u := strconv.FormatUint
	cell := func(in Relation, i int, it ProjItem) (string, error) {
		switch in.Kind {
		case KindRows:
			r := in.Rows[i]
			switch it.Col {
			case ColKey:
				return u(r.J, 10), nil
			case ColData:
				return table.DataString(r.D), nil
			}
			return "", fmt.Errorf("query: column %s not available without JOIN", colName(it))
		case KindPairs:
			pr := in.Pairs[i]
			switch it.Col {
			case ColKey:
				return u(pr.J, 10), nil
			case ColLeftData:
				return table.DataString(pr.D1), nil
			case ColRightData:
				return table.DataString(pr.D2), nil
			}
			return "", fmt.Errorf("query: ambiguous column data over a JOIN; use left.data or right.data")
		case KindGroups:
			g := in.Groups[i]
			switch it.Agg {
			case AggCount:
				return u(g.Count, 10), nil
			case AggSum:
				return u(g.Sum, 10), nil
			case AggMin:
				return u(g.Min, 10), nil
			case AggMax:
				return u(g.Max, 10), nil
			}
			if it.Col == ColKey {
				return u(g.K, 10), nil
			}
			return "", fmt.Errorf("query: column %s not available under GROUP BY", colName(it))
		case KindJoinStats:
			s := in.JoinStats[i]
			switch {
			case it.Agg == AggCount:
				return u(s.Pairs, 10), nil
			case it.Col == ColKey && it.Agg == AggNone:
				return u(s.J, 10), nil
			}
			return "", fmt.Errorf("query: only key and COUNT(*) are available for GROUP BY over a JOIN")
		case KindJoinSums:
			s := in.JoinSums[i]
			switch {
			case it.Agg == AggCount:
				return u(s.Pairs, 10), nil
			case it.Agg == AggSum && it.Col == ColRightData:
				return u(s.RightTotal(), 10), nil
			case it.Agg == AggSum:
				return u(s.LeftTotal(), 10), nil
			case it.Col == ColKey && it.Agg == AggNone:
				return u(s.J, 10), nil
			}
			return "", fmt.Errorf("query: column %s not available for GROUP BY over a JOIN", colName(it))
		}
		return "", fmt.Errorf("query: cannot project relation kind %d", in.Kind)
	}
	return func(i int) ([]string, error) {
		out := make([]string, 0, len(p.Items))
		for _, it := range p.Items {
			c, err := cell(in, i, it)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	}, nil
}
