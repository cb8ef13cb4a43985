package exec

import (
	"fmt"

	"oblivjoin/internal/table"
)

// Driver is the executor: it walks a pipeline stage by stage, holding
// the current stage's output either as a live RowSource (row-shaped
// data, flowing in DefaultBatch-row batches) or as a materialized
// Relation (keyed join output, aggregates, the result) charged to the
// run's gauge and discharged the moment the next stage has consumed it.
// Barrier operators fill their stores straight from the upstream
// batches and each intermediate store is released the moment it is
// drained, so the run's peak is the widest adjacent pair of stages, not
// the sum of every intermediate.
//
// The recorded access pattern is a function of the pipeline and the
// public sizes alone: fills defer their write events behind the
// upstream reads they interleave with (table.Builder), which is the
// canonical trace order.
type Driver struct {
	ctx       *Context
	g         *table.Gauge
	sink      RowSink
	src       RowSource
	rel       Relation
	relCharge int64
}

// NewDriver returns a driver executing against ctx and accounting
// hand-offs in g. With a non-nil sink the final Project delivers a row
// stream there batch by batch instead of materializing a Result.
func NewDriver(ctx *Context, g *table.Gauge, sink RowSink) *Driver {
	return &Driver{ctx: ctx, g: g, sink: sink}
}

// OutRows is the current stage's (public) output cardinality.
func (d *Driver) OutRows() int {
	if d.src != nil {
		return d.src.Len()
	}
	return d.rel.Size()
}

// Result returns the finished pipeline's result (nil when it went to
// the sink). A pipeline that did not end in a Project is an engine
// fault.
func (d *Driver) Result() (*Result, error) {
	if d.src != nil || d.rel.Kind != KindResult {
		return nil, fmt.Errorf("query: pipeline did not end in a projected result: %w", ErrInternal)
	}
	return d.rel.Result, nil
}

// Close ends the run: it closes a stream no stage consumed and drops
// the current relation's charge. A driver abandoned after an error
// leaves nothing charged once its gauge has released its stores.
func (d *Driver) Close() {
	if d.src != nil {
		d.src.Close()
	}
	d.setSource(nil)
}

func (d *Driver) setSource(s RowSource) {
	d.g.Discharge(d.relCharge)
	d.src, d.rel, d.relCharge = s, Relation{}, 0
}

// setRel stages a stage's materialized output: it is charged before the
// input's charge drops, since both are live at the hand-off.
func (d *Driver) setRel(rel Relation, charge int64) {
	d.g.Charge(charge)
	d.g.Discharge(d.relCharge)
	d.src, d.rel, d.relCharge = nil, rel, charge
}

// takeSource hands the live stream to a stage, which owns it from
// there: every execution form closes the stream it was given.
func (d *Driver) takeSource() RowSource {
	src := d.src
	d.src = nil
	return src
}

// Step executes one stage on the previous stage's output.
func (d *Driver) Step(op Operator) error {
	switch o := op.(type) {
	case Scan:
		src, err := o.Source(d.ctx)
		if err != nil {
			return err
		}
		d.setSource(src)
		return nil
	case Rekey:
		if d.rel.Kind != KindPairs {
			return malformed(op, "anything but join output")
		}
		// The pairs stay live while downstream drains; their charge
		// drops when the source closes.
		g, charge := d.g, d.relCharge
		d.relCharge = 0
		d.setSource(o.Source(d.ctx, d.rel.Pairs, func() { g.Discharge(charge) }))
		return nil
	case Join:
		if d.src == nil {
			return malformed(op, "a materialized relation")
		}
		rel, err := o.RunFeed(d.ctx, d.takeSource())
		if err != nil {
			return err
		}
		d.setRel(rel, RelationFootprint(rel))
		return nil
	case Project:
		if d.src == nil {
			break
		}
		result, err := o.RunStream(d.ctx, d.takeSource(), d.sink)
		if err != nil {
			return err
		}
		d.setRel(Relation{Kind: KindResult, Result: result}, ResultFootprint(result))
		return nil
	}
	if st, ok := op.(Streamer); ok && d.src != nil {
		out, err := st.RunStream(d.ctx, d.takeSource())
		if err != nil {
			return err
		}
		d.setSource(out)
		return nil
	}
	return d.runWhole(op)
}

// runWhole is the bridge into the whole-relation consumers: a live
// stream is drained into a slice first, and the input relation's charge
// drops once the operator has produced its output.
func (d *Driver) runWhole(op Operator) error {
	w, ok := op.(Whole)
	if !ok {
		return malformed(op, "a materialized relation")
	}
	if d.src != nil {
		rows, err := materialize(d.takeSource())
		if err != nil {
			return err
		}
		rel := Relation{Kind: KindRows, Rows: rows}
		d.setRel(rel, RelationFootprint(rel))
	}
	out, err := w.Run(d.ctx, d.rel)
	if err != nil {
		return err
	}
	d.setRel(out, RelationFootprint(out))
	if out.Kind == KindResult && d.sink != nil {
		// A whole-relation Project has no batches to hand the sink as
		// it goes: deliver its result in one piece.
		if err := d.sink.Columns(out.Result.Columns); err != nil {
			return err
		}
		return d.sink.Rows(out.Result.Rows)
	}
	return nil
}
