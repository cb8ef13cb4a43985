package bitonic

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

// Kernel is the operation applied to one run of comparators: for every
// k, x[k] is the element at index s.Lo+k and y[k] the element at
// s.Lo+s.Hop+k, with len(x) == len(y) == s.Cnt. The executor hands it
// sub-slices of its local block, never the store. A kernel may branch on
// s — the schedule is a pure function of the public length — but must
// touch every pair and be branch-free on the elements' contents.
type Kernel[T any] func(s Segment, x, y []T)

// chunkSize is the number of comparators one batched block processes:
// the unit of GetRange/SetRange batching and therefore of the canonical
// trace's run structure. It is a fixed constant, so the recorded trace
// is a pure function of the schedule.
const chunkSize = 512

// spanChunk is the entry capacity of one coalesced span chunk (see
// runRound): adjacent dense segments are grouped until their combined
// footprint reaches this many entries. Like chunkSize it is a fixed
// constant, so the chunk cut — and with it the canonical trace — is a
// pure function of the round.
const spanChunk = 2 * chunkSize

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

// roundExec executes rounds of disjoint comparator segments over one
// store, chunk by chunk in canonical order. blk is a reusable value
// block for batched compare–exchange: it holds one chunk's entries — a
// span, or a pair chunk's low sides then high sides — so min(n,
// spanChunk) entries always suffice: a span covers at most spanChunk
// entries, a pair chunk 2·chunkSize, and neither more than the store's
// n (a segment's two sides are disjoint ranges of it). n is public, so
// sizing by it changes no access.
type roundExec[T any] struct {
	op     Kernel[T]
	check  func() // cancellation probe; nil = never cancelled
	arr    Array[T]
	rng    RangeArray[T] // arr as RangeArray, or nil
	blk    []T
	chunks []chunk
	count  uint64 // comparators executed
}

func newRoundExec[T any](a Array[T], op Kernel[T], check func()) *roundExec[T] {
	rng, _ := a.(RangeArray[T])
	return &roundExec[T]{op: op, check: check, arr: a, rng: rng, blk: make([]T, min(a.Len(), spanChunk))}
}

// runRound executes one round of disjoint segments. The cancellation
// probe runs before the round and between its chunks, so an abort (the
// probe panics) never interrupts a store access mid-flight.
func (ex *roundExec[T]) runRound(segs []Segment) {
	if ex.check != nil {
		ex.check()
	}
	// Cut segments into canonical chunks. Runs of adjacent dense
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
	for i, c := range ex.chunks {
		// Rounds can be long (one round of a 64k sort is tens of
		// thousands of comparators); probing per chunk keeps the
		// cancellation latency at one chunk instead of one round.
		if ex.check != nil && i > 0 {
			ex.check()
		}
		ex.runChunk(c)
	}
}

// runChunk applies the kernel to every comparator of one chunk,
// batching the store accesses when the store supports ranges. The
// emitted event pattern — R-run(span), W-run(span) for span chunks;
// R-run(low side), R-run(high side), W-run(low side), W-run(high side)
// for pair chunks; or the interleaved per-pair pattern on stores without
// range support — is a function of the chunk alone.
func (ex *roundExec[T]) runChunk(c chunk) {
	if c.span != nil {
		ex.runSpan(c)
		return
	}
	s := Segment{Lo: c.seg.Lo + c.off, Cnt: c.cnt, Hop: c.seg.Hop, Dir: c.seg.Dir}
	if ex.rng != nil {
		x, y := ex.blk[:s.Cnt], ex.blk[s.Cnt:2*s.Cnt]
		ex.rng.GetRange(s.Lo, x)
		ex.rng.GetRange(s.Lo+s.Hop, y)
		ex.op(s, x, y)
		ex.rng.SetRange(s.Lo, x)
		ex.rng.SetRange(s.Lo+s.Hop, y)
		return
	}
	one := Segment{Cnt: 1, Hop: s.Hop, Dir: s.Dir}
	x, y := ex.blk[0:1], ex.blk[1:2]
	for k := 0; k < s.Cnt; k++ {
		one.Lo = s.Lo + k
		x[0], y[0] = ex.arr.Get(one.Lo), ex.arr.Get(one.Lo+one.Hop)
		ex.op(one, x, y)
		ex.arr.Set(one.Lo, x[0])
		ex.arr.Set(one.Lo+one.Hop, y[0])
	}
}

// runSpan executes a span chunk: one contiguous read of the covered
// entry range, every segment's compare–exchanges in local memory, one
// contiguous write back.
func (ex *roundExec[T]) runSpan(c chunk) {
	blk := ex.blk[:c.n]
	if ex.rng != nil {
		ex.rng.GetRange(c.lo, blk)
	} else {
		for k := range blk {
			blk[k] = ex.arr.Get(c.lo + k)
		}
	}
	for _, s := range c.span {
		base := s.Lo - c.lo
		ex.op(s, blk[base:base+s.Cnt], blk[base+s.Hop:base+s.Hop+s.Cnt])
	}
	if ex.rng != nil {
		ex.rng.SetRange(c.lo, blk)
	} else {
		for k := range blk {
			ex.arr.Set(c.lo+k, blk[k])
		}
	}
}

// RunRoundsCheck executes a round schedule over a with op and returns
// the number of comparator applications. schedule must call its
// argument once per round with segments whose pairs are disjoint within
// the round. It is the one execution engine behind the sorting networks
// and the routing network of internal/core.
//
// check (when non-nil) is a cancellation probe invoked before every
// round and between the chunks of a round, and may panic to abort the
// run. This is how a cancelled query stops an in-flight oblivious sort
// within one chunk.
func RunRoundsCheck[T any](a Array[T], op Kernel[T], check func(), schedule func(round func([]Segment))) uint64 {
	ex := newRoundExec(a, op, check)
	schedule(ex.runRound)
	return ex.count
}
