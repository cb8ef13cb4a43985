package exec

import (
	"fmt"
	"strconv"
	"strings"

	"oblivjoin/internal/core"
	"oblivjoin/internal/ops"
	"oblivjoin/internal/table"
)

// Batch is one block-granular hand-off between pipeline stages: a
// window of rows whose backing array the producer may reuse after the
// next call to Next. It is a type alias (not a defined type) so a
// RowSource satisfies core.RowFeed structurally and a join can consume
// an upstream stage's batches straight into TC.
type Batch = []table.Row

// DefaultBatch is the hand-off granularity in rows: 64 sealed blocks of
// the default block width, so batch boundaries always align with
// ciphertext blocks and a sealed drain never splits a block RMW.
const DefaultBatch = 64 * table.DefaultSealedBlock

// RowSource is the pull side of the streaming contract. Len is the
// public total row count (known up front — every operator's output
// size is public by design). Next returns the next batch, nil at end
// of stream; the returned slice is only valid until the following
// call. Close releases whatever the source drains from (idempotent;
// Next at end of stream releases implicitly).
type RowSource interface {
	Len() int
	Next() (Batch, error)
	Close()
}

// Streamer is implemented by the operators that turn one row stream
// into the next. Barrier operators (filter, distinct, sort, semijoin)
// are eager: RunStream fills a store from the upstream batches,
// runs the oblivious body, and returns a lazy drain of the surviving
// prefix. Row-level operators (limit) are lazy end to end. RunStream
// owns src: it is closed by the time RunStream fails, or by the
// returned source.
type Streamer interface {
	Operator
	RunStream(ctx *Context, src RowSource) (RowSource, error)
}

// RowSink consumes a streamed result incrementally: Columns once, then
// any number of Rows calls in output order. When a query runs against
// a sink the final result is never materialized, so the peak memory of
// the run is bounded by the widest single stage.
type RowSink interface {
	Columns(cols []string) error
	Rows(rows [][]string) error
}

// NewStore allocates an n-entry store through the run's configured
// allocator — the shared allocation helper the store-backed operators
// and streaming fills go through instead of each repeating the
// cfg-plumbing boilerplate.
func (c *Context) NewStore(n int) table.Store {
	return c.Cfg.Alloc(n)
}

// fillFrom drains src into bld, tagging every row with tid, probing
// for cancellation at batch boundaries. It closes src in all cases.
func (c *Context) fillFrom(bld *table.Builder, src RowSource, tid uint64) error {
	defer src.Close()
	for {
		probe(c)
		b, err := src.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		bld.AppendRows(b, tid)
	}
}

// fillStore loads src into a fresh store of exactly src.Len() entries.
// The builder's deferred-trace write replay keeps the recorded event
// order the canonical one: every upstream drain read, then the fill's
// writes.
func (c *Context) fillStore(src RowSource) (table.Store, error) {
	a := c.NewStore(src.Len())
	bld := table.NewBuilder(a)
	if err := c.fillFrom(bld, src, 0); err != nil {
		return nil, err
	}
	bld.Flush()
	return a, nil
}

// ── sources ──────────────────────────────────────────────────────────

// sliceSource streams a catalog table as zero-copy subslices. It holds
// nothing of the run's, so Close has nothing to release.
type sliceSource struct {
	ctx  *Context
	rows []table.Row
	pos  int
}

func newSliceSource(ctx *Context, rows []table.Row) RowSource {
	return &sliceSource{ctx: ctx, rows: rows}
}

func (s *sliceSource) Len() int { return len(s.rows) }

func (s *sliceSource) Next() (Batch, error) {
	probe(s.ctx)
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	hi := min(s.pos+DefaultBatch, len(s.rows))
	b := s.rows[s.pos:hi]
	s.pos = hi
	return b, nil
}

func (s *sliceSource) Close() {}

// storeSource drains the live prefix [0, k) of a store in batch-sized
// range reads, releasing the store into the run's gauge once drained.
// The range reads canonicalize to per-entry read events in ascending
// index order.
type storeSource struct {
	ctx      *Context
	st       table.Store
	k        int
	pos      int
	buf      []table.Entry
	rows     []table.Row
	released bool
}

func newStoreSource(ctx *Context, st table.Store, k int) *storeSource {
	return &storeSource{ctx: ctx, st: st, k: k}
}

func (s *storeSource) Len() int { return s.k }

func (s *storeSource) Next() (Batch, error) {
	probe(s.ctx)
	if s.pos >= s.k {
		s.Close()
		return nil, nil
	}
	if s.buf == nil {
		s.buf = make([]table.Entry, DefaultBatch)
		s.rows = make([]table.Row, DefaultBatch)
	}
	n := min(len(s.buf), s.k-s.pos)
	s.st.GetRange(s.pos, s.buf[:n])
	for i := range s.buf[:n] {
		s.rows[i] = table.Row{J: s.buf[i].J, D: s.buf[i].D}
	}
	s.pos += n
	return s.rows[:n], nil
}

func (s *storeSource) Close() {
	if s.released {
		return
	}
	s.released = true
	if s.ctx != nil && s.ctx.Cfg != nil {
		s.ctx.Cfg.ReleaseStore(s.st)
	}
}

// rekeySource converts keyed join output into a row stream batch-wise,
// so a join feeding a downstream stage never materializes the rekeyed
// whole-relation slice.
type rekeySource struct {
	ctx     *Context
	pairs   []table.KeyedPair
	first   bool
	pos     int
	rows    []table.Row
	onClose func()
}

// Source is Rekey's execution form: it wraps keyed join output as a row
// stream. onClose runs once, on close or full drain — the driver
// discharges the pairs' gauge weight there, the moment downstream is
// done with them.
func (r Rekey) Source(ctx *Context, pairs []table.KeyedPair, onClose func()) RowSource {
	return &rekeySource{ctx: ctx, pairs: pairs, first: r.First, onClose: onClose}
}

func (s *rekeySource) Len() int { return len(s.pairs) }

func (s *rekeySource) Next() (Batch, error) {
	probe(s.ctx)
	if s.pos >= len(s.pairs) {
		s.Close()
		return nil, nil
	}
	if s.rows == nil {
		s.rows = make([]table.Row, DefaultBatch)
	}
	n := min(len(s.rows), len(s.pairs)-s.pos)
	for i, p := range s.pairs[s.pos : s.pos+n] {
		d1 := table.DataString(p.D1)
		if s.first {
			d1 = encodeSegment(d1)
		}
		d, err := rekeyJoin(d1, table.DataString(p.D2))
		if err != nil {
			return nil, err
		}
		s.rows[i] = table.Row{J: p.J, D: d}
	}
	s.pos += n
	return s.rows[:n], nil
}

func (s *rekeySource) Close() {
	if s.onClose != nil {
		s.onClose()
		s.onClose = nil
	}
}

// limitSource forwards the first total rows of src and then keeps
// draining the remainder without forwarding it. The dummy drain keeps
// the upstream read pattern — and hence the canonical trace — a
// function of the upstream size alone, never of N.
type limitSource struct {
	ctx   *Context
	src   RowSource
	total int
	sent  int
}

func (l *limitSource) Len() int { return l.total }

func (l *limitSource) Next() (Batch, error) {
	for {
		b, err := l.src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if l.sent >= l.total {
			continue // dummy drain past the limit
		}
		take := min(len(b), l.total-l.sent)
		l.sent += take
		return b[:take], nil
	}
}

func (l *limitSource) Close() { l.src.Close() }

// numericCheck checks, as they stream past, the payloads of the
// streams it wraps: the ones a SUM, MIN or MAX reads as unsigned
// decimals. The last wrapped stream to end fails, listing every wrapped
// stream's distinct offenders (capped for readability), so the error
// names them all and comes before the consuming operator sorts
// anything.
type numericCheck struct {
	open int             // wrapped streams not yet ended
	seen map[string]bool // distinct offenders
	bad  []string        // the same, quoted, in the order met
}

const maxListed = 5

func (c *numericCheck) wrap(src RowSource) RowSource {
	c.open++
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	return &checkedSource{RowSource: src, check: c}
}

func (c *numericCheck) see(b Batch) {
	for _, r := range b {
		s := table.DataString(r.D)
		if _, err := strconv.ParseUint(s, 10, 64); err != nil && !c.seen[s] {
			c.seen[s] = true
			c.bad = append(c.bad, strconv.Quote(s))
		}
	}
}

// verdict is the check's error, once the last wrapped stream has ended.
func (c *numericCheck) verdict() error {
	if c.open--; c.open > 0 || len(c.bad) == 0 {
		return nil
	}
	list := strings.Join(c.bad[:min(len(c.bad), maxListed)], ", ")
	if len(c.bad) > maxListed {
		list += fmt.Sprintf(", … (%d distinct values)", len(c.bad))
	}
	return fmt.Errorf("query: SUM/MIN/MAX need numeric data payloads; found %s", list)
}

type checkedSource struct {
	RowSource
	check *numericCheck
	ended bool
}

func (s *checkedSource) Next() (Batch, error) {
	b, err := s.RowSource.Next()
	if err != nil || s.ended {
		return b, err
	}
	s.check.see(b)
	if b == nil {
		s.ended = true
		return nil, s.check.verdict()
	}
	return b, nil
}

// ── the row-stream operators ─────────────────────────────────────────

// RunStream implements Streamer: fill, null-and-compact, drain prefix.
func (f Filter) RunStream(ctx *Context, src RowSource) (RowSource, error) {
	a, err := ctx.fillStore(src)
	if err != nil {
		return nil, err
	}
	k := ops.FilterStore(ctx.Cfg, a, f.Pred)
	return newStoreSource(ctx, a, int(k)), nil
}

// RunStream implements Streamer.
func (Distinct) RunStream(ctx *Context, src RowSource) (RowSource, error) {
	a, err := ctx.fillStore(src)
	if err != nil {
		return nil, err
	}
	k := ops.DistinctStore(ctx.Cfg, a)
	return newStoreSource(ctx, a, int(k)), nil
}

// RunStream implements Streamer.
func (s Sort) RunStream(ctx *Context, src RowSource) (RowSource, error) {
	if s.Free {
		return src, nil
	}
	a, err := ctx.fillStore(src)
	if err != nil {
		return nil, err
	}
	k := ops.SortByKeyStore(ctx.Cfg, a)
	return newStoreSource(ctx, a, int(k)), nil
}

// RunStream implements Streamer. The subquery table is appended before
// the upstream rows (right TID 1, then left TID 2), the load order
// ops.SemijoinStore expects.
func (s Semijoin) RunStream(ctx *Context, src RowSource) (RowSource, error) {
	sub, err := lookup(ctx, s.Table, " in IN subquery")
	if err != nil {
		src.Close()
		return nil, err
	}
	a := ctx.NewStore(len(sub) + src.Len())
	bld := table.NewBuilder(a)
	bld.AppendRows(sub, 1)
	if err := ctx.fillFrom(bld, src, 2); err != nil {
		return nil, err
	}
	bld.Flush()
	k := ops.SemijoinStore(ctx.Cfg, a)
	return newStoreSource(ctx, a, int(k)), nil
}

// RunFeed implements Feeder: both inputs arrive batch-wise and
// append straight into the join's combined store
// (core.JoinKeyedFeed2), so neither relation is ever staged as an
// extra slice — the left is the upstream stage's stream, the right is
// drained from the catalog in batch windows. The keyed output is
// materialized — a join is a barrier; its m output rows exist at once
// by construction.
func (j Join) RunFeed(ctx *Context, src RowSource) (Relation, error) {
	right, err := lookup(ctx, j.Table, "")
	if err != nil {
		src.Close()
		return Relation{}, err
	}
	pairs, err := core.JoinKeyedFeed2(ctx.Cfg, src, newSliceSource(ctx, right))
	if err != nil {
		return Relation{}, err
	}
	return Relation{Kind: KindPairs, Pairs: pairs}, nil
}

// RunStream implements Streamer: forward the first N rows lazily, then
// dummy-drain the rest.
func (l Limit) RunStream(ctx *Context, src RowSource) (RowSource, error) {
	return &limitSource{ctx: ctx, src: src, total: min(l.N, src.Len())}, nil
}

// ── accounting ───────────────────────────────────────────────────────

// RelationFootprint is the deterministic accounting weight, in bytes,
// of a materialized relation hand-off. Fixed per-record costs (not
// live heap measurements) so PeakBytes is reproducible across runs,
// platforms and GC schedules, and therefore CI-gateable.
func RelationFootprint(r Relation) int64 {
	switch r.Kind {
	case KindPairs:
		return int64(len(r.Pairs)) * int64(8+2*table.DataLen)
	case KindGroups:
		return int64(len(r.Groups)) * 48
	case KindJoinStats:
		return int64(len(r.JoinStats)) * 32
	case KindJoinSums:
		return int64(len(r.JoinSums)) * 64
	case KindResult:
		return ResultFootprint(r.Result)
	}
	return 0
}

// ResultFootprint is the accounting weight of a rendered result: one
// slice header per row plus a string header and payload per cell.
func ResultFootprint(res *Result) int64 {
	if res == nil {
		return 0
	}
	var t int64
	for _, row := range res.Rows {
		t += 24
		for _, c := range row {
			t += 16 + int64(len(c))
		}
	}
	return t
}
