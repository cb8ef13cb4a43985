package main

import (
	"fmt"
	"time"

	"oblivjoin"
	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// joinWorkload is join-plain or join-sealed: one caller running
// oblivjoin.Join back to back over three input shapes of identical
// public sizes.
type joinWorkload struct {
	sealed bool
	n      int // n1 = n2 = m

	inputs []joinInput
	tables [][2]*oblivjoin.Table
	opts   *oblivjoin.Options
	cipher *crypto.Cipher // seals the decomposed join's stores
	peak   int64          // tracked bytes of one join
	checks checkCounts
	smoke  bool
}

func (w *joinWorkload) describe() map[string]int {
	return map[string]int{"n1": w.n, "n2": w.n, "m": w.n, "clients": 1, "workers": 1, "shapes": len(joinShapes)}
}

func (w *joinWorkload) counts() *checkCounts { return &w.checks }
func (w *joinWorkload) peakBytes() int64     { return w.peak }
func (w *joinWorkload) close()               {}
func (w *joinWorkload) verify() error        { return nil }

func (w *joinWorkload) opLatencies(lr *loopResult) []float64 { return lr.lat["join"] }

// setup generates the three inputs and their reference outputs, checks
// that two shapes leave the same access-pattern hash, takes the tracked
// footprint from a decomposed run and warms up.
func (w *joinWorkload) setup(seed int64) error {
	w.opts = &oblivjoin.Options{Workers: 1, Encrypted: w.sealed}
	w.inputs, w.tables = nil, nil
	for i, shape := range joinShapes {
		in := genJoinInput(shape, w.n, seed*int64(len(joinShapes))+int64(i))
		if len(in.left) != w.n || len(in.right) != w.n || in.want.rows != w.n {
			return fmt.Errorf("%s: generated sizes (%d, %d, %d), want all %d", shape, len(in.left), len(in.right), in.want.rows, w.n)
		}
		w.inputs = append(w.inputs, in)
		w.tables = append(w.tables, [2]*oblivjoin.Table{oblivjoin.FromRows(in.left), oblivjoin.FromRows(in.right)})
	}
	if w.sealed {
		c, _, err := crypto.NewRandom()
		if err != nil {
			return err
		}
		w.cipher = c
	}

	hashOpts := *w.opts
	hashOpts.TraceHash = true
	var hashes []string
	for i := 0; i < 2; i++ {
		res, err := oblivjoin.Join(w.tables[i][0], w.tables[i][1], &hashOpts)
		if err != nil {
			return err
		}
		hashes = append(hashes, res.TraceHash)
	}
	if hashes[0] != hashes[1] {
		return fmt.Errorf("trace hashes differ between %s and %s: the join is not oblivious", joinShapes[0], joinShapes[1])
	}
	w.checks.traceHash.Add(2)

	gauge := &table.Gauge{}
	got, _ := w.decomposed(nil, 0, w.inputs[0], gauge, nil)
	if got != w.inputs[0].want {
		return fmt.Errorf("decomposed join output differs from the reference")
	}
	w.checks.oracle.Add(1)
	w.peak = gauge.Peak()

	for i := 0; i < 2*len(w.inputs); i++ {
		if _, err := w.op(i); err != nil {
			return err
		}
	}
	return nil
}

// op runs the i-th operation and checks its output.
func (w *joinWorkload) op(i int) (time.Duration, error) {
	k := i % len(w.inputs)
	t0 := time.Now()
	res, err := oblivjoin.Join(w.tables[k][0], w.tables[k][1], w.opts)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	w.checks.oracle.Add(1)
	if pairsFingerprint(res.Pairs) != w.inputs[k].want {
		return d, fmt.Errorf("%s: join output differs from the reference", w.inputs[k].shape)
	}
	return d, nil
}

// measure runs the closed loop of one caller until both the duration
// and the minimum op count are reached.
func (w *joinWorkload) measure(d time.Duration, minOps int) loopResult {
	var lr loopResult
	start := time.Now()
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		dt, err := w.op(i)
		lr.record("join", dt, err)
	}
	lr.wall = time.Since(start)
	return lr
}

func (w *joinWorkload) alloc(rec trace.Recorder, gauge *table.Gauge) table.Alloc {
	sp := memory.NewSpace(rec, nil)
	alloc := table.PlainAlloc(sp)
	if w.sealed {
		alloc = table.BlockEncryptedAlloc(sp, w.cipher, 0)
	}
	return table.TrackedAlloc(alloc, gauge)
}

// decomposed runs the join as its public phases — AugmentTables, two
// ObliviousExpands, AlignTable and the zip — each under a span, and
// returns the output fingerprint and the phase statistics.
func (w *joinWorkload) decomposed(tr *tracer, op int, in joinInput, gauge *table.Gauge, rec trace.Recorder) (fingerprint, core.Stats) {
	var st core.Stats
	cfg := &core.Config{Alloc: w.alloc(rec, gauge), Stats: &st, Workers: 1, Mem: gauge}
	root, endRoot := tr.begin(op, 0, "harness", "join")
	defer endRoot()

	phase := func(name string, fn func()) {
		_, end := tr.begin(op, root, "core", name)
		fn()
		end()
	}
	var t1, t2, s1, s2 table.Store
	var m int
	phase("augment", func() {
		t0 := time.Now()
		_, t1, t2, m = core.AugmentTables(cfg, in.left, in.right)
		st.TAugment += time.Since(t0)
	})
	phase("expand1", func() { s1 = core.ObliviousExpand(cfg, t1, core.GAlpha2, m) })
	phase("expand2", func() { s2 = core.ObliviousExpand(cfg, t2, core.GAlpha1, m) })
	phase("align", func() { core.AlignTable(cfg, s2) })

	var f fingerprint
	zip, endZip := tr.begin(op, root, "core", "zip")
	const blk = 1024
	var b1, b2 [blk]table.Entry
	r1, r2 := s1.(table.RangeStore), s2.(table.RangeStore)
	for lo := 0; lo < m; lo += blk {
		cnt := min(blk, m-lo)
		_, end := tr.begin(op, zip, "table", "getrange")
		r1.GetRange(lo, b1[:cnt])
		r2.GetRange(lo, b2[:cnt])
		end()
		for k := 0; k < cnt; k++ {
			f.add(table.DataString(b1[k].D), table.DataString(b2[k].D))
		}
	}
	endZip()
	return f, st
}

// traced alternates untraced oblivjoin.Join calls with decomposed joins
// under spans, so both see the same machine state; it returns the two
// latency samples and the per-op phase statistics.
func (w *joinWorkload) traced(d time.Duration, minOps int, tr *tracer) (plain, spanned loopResult, stats []core.Stats) {
	start := time.Now()
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		in := w.inputs[(i/2)%len(w.inputs)]
		if i%2 == 0 {
			dt, err := w.op(i / 2)
			plain.record("join", dt, err)
			continue
		}
		t0 := time.Now()
		got, st := w.decomposed(tr, i/2+1, in, nil, nil)
		dt := time.Since(t0)
		var err error
		w.checks.oracle.Add(1)
		if got != in.want {
			err = fmt.Errorf("%s: decomposed join output differs from the reference", in.shape)
		}
		spanned.record("join", dt, err)
		stats = append(stats, st)
	}
	plain.wall = time.Since(start)
	spanned.wall = plain.wall
	return plain, spanned, stats
}
