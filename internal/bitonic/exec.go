package bitonic

import (
	"runtime"
	"sync"

	"oblivjoin/internal/trace"
)

// RangeArray is an optional Array extension: batched contiguous reads
// and writes. Implementations must emit exactly the per-element events
// of the equivalent Get/Set loop, in ascending index order, with the
// whole range handled in one dynamic dispatch. *memory.Array[T],
// *table.Encrypted and the windowed views of internal/core implement
// it.
type RangeArray[T any] interface {
	Array[T]
	GetRange(lo int, dst []T)
	SetRange(lo int, src []T)
}

// Sharder is an optional Array extension that makes concurrent access
// safe and deterministically traceable. Shard returns an alias of the
// array (same identifier, same backing storage) whose accesses are
// recorded to rec instead of the parent's recorder; the result is
// asserted back to Array[T] by the executor (the untyped return keeps
// storage packages decoupled from this one). Shard returns nil when the
// array cannot be accessed concurrently — e.g. an enclave cost model is
// attached, whose paging simulation is order-dependent — in which case
// the executor degrades to sequential execution over the same schedule,
// preserving the canonical trace.
type Sharder interface {
	Traced() bool
	Recorder() trace.Recorder
	Shard(rec trace.Recorder) any
}

// Kernel is the operation applied to one run of comparators: for every
// k, x[k] is the element at index s.Lo+k and y[k] the element at
// s.Lo+s.Hop+k, with len(x) == len(y) == s.Cnt. The executor hands it
// sub-slices of its local block, never the store. A kernel may branch on
// s — the schedule is a pure function of the public length — but must
// touch every pair and be branch-free on the elements' contents.
type Kernel[T any] func(s Segment, x, y []T)

// chunkSize is the number of comparators one batched block processes:
// the unit of GetRange/SetRange batching and therefore of the canonical
// trace's run structure. It is a fixed constant — never derived from
// the worker count — so the recorded trace is identical for every
// degree of parallelism.
const chunkSize = 512

// spanChunk is the entry capacity of one coalesced span chunk (see
// runRound): adjacent dense segments are grouped until their combined
// footprint reaches this many entries. Like chunkSize it is a fixed
// constant, so the chunk cut — and with it the canonical trace — is a
// pure function of the round.
const spanChunk = 2 * chunkSize

// workerPool is the persistent process-wide pool that executes round
// partitions. Workers are started once, sized to GOMAXPROCS, and live
// for the life of the process; individual sorts only borrow them.
type workerPool struct {
	jobs chan func()
}

var (
	poolOnce sync.Once
	gPool    *workerPool
)

func sharedPool() *workerPool {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		p := &workerPool{jobs: make(chan func(), 4*n)}
		for i := 0; i < n; i++ {
			go func() {
				for f := range p.jobs {
					f()
				}
			}()
		}
		gPool = p
	})
	return gPool
}

// do runs every fn to completion before returning. fns[0] runs on the
// calling goroutine; the rest go to pool workers, falling back to
// inline execution when the pool is saturated so progress never waits
// on a busy worker.
//
// A panic in any fn (a sealed-block auth failure or spill IO fault on
// a parallel lane) is captured, every other fn still runs to the
// barrier, and the first panic value is then re-raised on the calling
// goroutine: no pool worker ever dies with an unrecovered panic taking
// the process down, and the store is never left with lanes still
// writing while the caller unwinds.
func (p *workerPool) do(fns []func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var (
		wg    sync.WaitGroup
		pmu   sync.Mutex
		pval  any
		pseen bool
	)
	guard := func(f func()) {
		defer func() {
			if r := recover(); r != nil {
				pmu.Lock()
				if !pseen {
					pval, pseen = r, true
				}
				pmu.Unlock()
			}
		}()
		f()
	}
	wg.Add(len(fns) - 1)
	for _, f := range fns[1:] {
		task := func() {
			defer wg.Done()
			guard(f)
		}
		select {
		case p.jobs <- task:
		default:
			task()
		}
	}
	guard(fns[0])
	wg.Wait()
	if pseen {
		panic(pval)
	}
}

// chunk is one canonically-cut unit of a round, in one of two forms.
//
// Pair form (span == nil): one block of a single segment's comparators
// (seg.Lo+off+k, seg.Lo+seg.Hop+off+k) for k ∈ [0, cnt), executed as
// two batched ranges (the low sides and the high sides).
//
// Span form (span != nil): a run of adjacent dense segments — each with
// Cnt == Hop, tiling the contiguous entry range [lo, lo+n) with no gap
// — executed as ONE batched range read, the compare–exchanges in local
// memory, and one batched range write. This is what keeps small-hop
// rounds batch-granular: without it a hop-h round decomposes into
// h-entry ranges, which defeats range batching (and block-sealed
// storage) exactly in the rounds that dominate the network.
type chunk struct {
	span     []Segment // span form: adjacent dense segments
	lo, n    int       // span form: covered entry range [lo, lo+n)
	seg      Segment   // pair form
	off, cnt int
}

// comparators returns the number of compare–exchanges the chunk holds.
func (c chunk) comparators() int {
	if c.span == nil {
		return c.cnt
	}
	return c.n / 2
}

// lane is one worker's execution context: a shard alias of the store, a
// private event buffer replayed at round barriers, and a reusable value
// block for batched compare–exchange.
//
// The block holds one chunk's entries — a span, or a pair chunk's low
// sides then high sides — so min(n, spanChunk) entries always suffice: a
// span covers at most spanChunk entries, a pair chunk 2·chunkSize, and
// neither more than the store's n (a segment's two sides are disjoint
// ranges of it). n is public, so sizing by it changes no access.
type lane[T any] struct {
	arr Array[T]
	rng RangeArray[T] // arr as RangeArray, or nil
	buf *trace.Buffer // nil when the store is untraced
	blk []T
}

// roundExec executes rounds of disjoint comparator segments over one
// store. With workers == 1 it runs each chunk directly against the
// store, in canonical order. With workers > 1 it partitions each
// round's chunk list into contiguous spans, one per lane, runs the
// spans on the shared pool, and replays the lanes' event buffers into
// the store's recorder in lane order at the round barrier — which
// reproduces exactly the sequential canonical trace.
type roundExec[T any] struct {
	op      Kernel[T]
	workers int
	check   func()    // cancellation probe; nil = never cancelled
	seq     lane[T]   // direct-access lane for sequential execution
	lanes   []lane[T] // shard lanes, parallel mode only
	rec     trace.Recorder
	chunks  []chunk
	count   uint64 // comparators executed
}

func newRoundExec[T any](a Array[T], op Kernel[T], workers int, check func()) *roundExec[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ex := &roundExec[T]{op: op, workers: workers, check: check}
	baseRng, _ := a.(RangeArray[T])
	ex.seq = lane[T]{arr: a, rng: baseRng}
	if workers > 1 {
		ex.lanes = makeLanes(a, baseRng != nil, workers)
		if ex.lanes == nil {
			ex.workers = 1
		} else if ex.lanes[0].buf != nil {
			ex.rec = a.(Sharder).Recorder()
		}
	}
	// The direct lane also serves single-chunk rounds in parallel mode,
	// so it always needs its value block.
	ex.seq.blk = make([]T, min(a.Len(), spanChunk))
	return ex
}

// makeLanes builds one shard lane per worker, or returns nil when the
// store cannot support concurrent execution (no Sharder, shard refused,
// or shards missing the range capability the base store has — which
// would change the canonical trace's run structure).
func makeLanes[T any](a Array[T], wantRange bool, workers int) []lane[T] {
	sh, ok := a.(Sharder)
	if !ok {
		return nil
	}
	traced := sh.Traced()
	lanes := make([]lane[T], workers)
	for w := range lanes {
		var buf *trace.Buffer
		var rec trace.Recorder
		if traced {
			buf = &trace.Buffer{}
			rec = buf
		}
		res := sh.Shard(rec)
		if res == nil {
			return nil
		}
		arr, ok := res.(Array[T])
		if !ok {
			return nil
		}
		rng, hasRange := arr.(RangeArray[T])
		if wantRange && !hasRange {
			return nil
		}
		if !wantRange {
			rng = nil
		}
		lanes[w] = lane[T]{arr: arr, rng: rng, buf: buf, blk: make([]T, min(a.Len(), spanChunk))}
	}
	return lanes
}

// runRound executes one round of disjoint segments. The cancellation
// probe runs on the scheduling goroutine only — at the round barrier
// in parallel mode, and between chunks in sequential mode — so an
// abort (the probe panics) never unwinds a pool worker and never
// interrupts a store access mid-flight.
func (ex *roundExec[T]) runRound(segs []Segment) {
	if ex.check != nil {
		ex.check()
	}
	// Cut segments into canonical chunks; the cut depends only on the
	// round, never on the worker count. Runs of adjacent dense
	// segments (Cnt == Hop, no coverage gap, footprint ≤ spanChunk
	// entries) coalesce into span chunks; everything else becomes
	// pair chunks of at most chunkSize comparators.
	ex.chunks = ex.chunks[:0]
	total := 0
	for i := 0; i < len(segs); {
		s := segs[i]
		total += s.Cnt
		if s.Cnt != s.Hop || 2*s.Cnt > spanChunk {
			for off := 0; off < s.Cnt; off += chunkSize {
				cnt := s.Cnt - off
				if cnt > chunkSize {
					cnt = chunkSize
				}
				ex.chunks = append(ex.chunks, chunk{seg: s, off: off, cnt: cnt})
			}
			i++
			continue
		}
		// Greedily extend the span while the next segment is dense,
		// exactly adjacent, and fits the fixed capacity.
		j, end := i+1, s.Lo+2*s.Cnt
		for j < len(segs) {
			t := segs[j]
			if t.Cnt != t.Hop || t.Lo != end || end+2*t.Cnt-s.Lo > spanChunk {
				break
			}
			total += t.Cnt
			end += 2 * t.Cnt
			j++
		}
		ex.chunks = append(ex.chunks, chunk{span: segs[i:j:j], lo: s.Lo, n: end - s.Lo})
		i = j
	}
	ex.count += uint64(total)
	if total == 0 {
		return
	}
	if ex.workers == 1 || len(ex.chunks) == 1 {
		for i, c := range ex.chunks {
			// Sequential rounds can be long (one round of a 64k sort is
			// tens of thousands of comparators); probing per chunk keeps
			// the cancellation latency at one chunk instead of one round.
			if ex.check != nil && i > 0 {
				ex.check()
			}
			ex.seq.runChunk(ex.op, c)
		}
		return
	}

	// Partition the chunk list into contiguous spans balanced by
	// comparator count, one span per lane, preserving canonical order.
	nw := ex.workers
	if nw > len(ex.chunks) {
		nw = len(ex.chunks)
	}
	target := (total + nw - 1) / nw
	fns := make([]func(), 0, nw)
	start, load, used := 0, 0, 0
	for i, c := range ex.chunks {
		load += c.comparators()
		// Cut when the span reached its target, keeping enough chunks
		// for the remaining lanes.
		if load >= target || len(ex.chunks)-i-1 == nw-used-1 {
			ln, lo, hi := &ex.lanes[used], start, i+1
			fns = append(fns, func() {
				for _, c := range ex.chunks[lo:hi] {
					ln.runChunk(ex.op, c)
				}
			})
			start, load = i+1, 0
			used++
			if used == nw {
				break
			}
		}
	}
	sharedPool().do(fns)
	// Round barrier: merge the lanes' event shards in canonical order.
	if ex.rec != nil {
		for i := range ex.lanes[:used] {
			ex.lanes[i].buf.ReplayTo(ex.rec)
		}
	}
}

// runChunk applies the kernel to every comparator of one chunk,
// batching the store accesses when the store supports ranges. The
// emitted event pattern — R-run(span), W-run(span) for span chunks;
// R-run(low side), R-run(high side), W-run(low side), W-run(high side)
// for pair chunks; or the interleaved per-pair pattern on stores without
// range support — is a function of the chunk alone.
func (l *lane[T]) runChunk(op Kernel[T], c chunk) {
	if c.span != nil {
		l.runSpan(op, c)
		return
	}
	s := Segment{Lo: c.seg.Lo + c.off, Cnt: c.cnt, Hop: c.seg.Hop, Dir: c.seg.Dir}
	if l.rng != nil {
		x, y := l.blk[:s.Cnt], l.blk[s.Cnt:2*s.Cnt]
		l.rng.GetRange(s.Lo, x)
		l.rng.GetRange(s.Lo+s.Hop, y)
		op(s, x, y)
		l.rng.SetRange(s.Lo, x)
		l.rng.SetRange(s.Lo+s.Hop, y)
		return
	}
	one := Segment{Cnt: 1, Hop: s.Hop, Dir: s.Dir}
	x, y := l.blk[0:1], l.blk[1:2]
	for k := 0; k < s.Cnt; k++ {
		one.Lo = s.Lo + k
		x[0], y[0] = l.arr.Get(one.Lo), l.arr.Get(one.Lo+one.Hop)
		op(one, x, y)
		l.arr.Set(one.Lo, x[0])
		l.arr.Set(one.Lo+one.Hop, y[0])
	}
}

// runSpan executes a span chunk: one contiguous read of the covered
// entry range, every segment's compare–exchanges in local memory, one
// contiguous write back.
func (l *lane[T]) runSpan(op Kernel[T], c chunk) {
	blk := l.blk[:c.n]
	if l.rng != nil {
		l.rng.GetRange(c.lo, blk)
	} else {
		for k := range blk {
			blk[k] = l.arr.Get(c.lo + k)
		}
	}
	for _, s := range c.span {
		base := s.Lo - c.lo
		op(s, blk[base:base+s.Cnt], blk[base+s.Hop:base+s.Hop+s.Cnt])
	}
	if l.rng != nil {
		l.rng.SetRange(c.lo, blk)
	} else {
		for k := range blk {
			l.arr.Set(c.lo+k, blk[k])
		}
	}
}

// RunTasks runs every fn to completion on the shared persistent pool
// (fns[0] on the calling goroutine). It is the raw fork–join primitive
// behind RunRoundsCheck, exported for the blocked parallel scans of
// internal/core, which partition linear passes the same way rounds are
// partitioned.
func RunTasks(fns []func()) {
	if len(fns) == 0 {
		return
	}
	sharedPool().do(fns)
}

// RunRoundsCheck executes a round schedule over a with op, using up to
// workers lanes (≤ 0 means GOMAXPROCS), and returns the number of
// comparator applications. schedule must call its argument once per
// round with segments whose pairs are disjoint within the round;
// RunRoundsCheck barriers between rounds. It is the one execution engine
// behind the sorting networks and the routing network of internal/core.
//
// check (when non-nil) is a cancellation probe invoked on the scheduling
// goroutine at every round barrier — and between chunks of sequential
// rounds — and may panic to abort the run. Because the probe never runs
// on a pool worker, an abort unwinds only the caller's stack: lanes
// always finish the round they started, no store access is torn, and the
// shared pool keeps its workers. This is how a cancelled query stops an
// in-flight oblivious sort within one round.
func RunRoundsCheck[T any](a Array[T], op Kernel[T], workers int, check func(), schedule func(round func([]Segment))) uint64 {
	ex := newRoundExec(a, op, workers, check)
	schedule(ex.runRound)
	return ex.count
}
