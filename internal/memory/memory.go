// Package memory models the public memory of the adversarial setting.
//
// All tables manipulated by the join live in Arrays allocated from a
// Space. Every element read or write emits a trace.Event to the Space's
// recorder — these events are exactly the ?← accesses of §4.3 of the
// paper — and is charged to an optional enclave cost model that simulates
// SGX-style execution for the Figure 8 experiment: a fixed per-access
// overhead plus a page-fault penalty once the working set exceeds the
// Enclave Page Cache.
//
// Local (protected) memory corresponds to plain Go variables; the
// algorithm keeps only a constant number of those, on the order of one
// database entry, matching the paper's level-II requirement.
package memory

import (
	"fmt"
	"time"

	"oblivjoin/internal/trace"
)

// Space ties together a trace recorder and an optional cost model, and
// hands out array identifiers. The zero value is not usable; call
// NewSpace.
type Space struct {
	rec    trace.Recorder
	cost   *CostModel
	nop    bool // rec is trace.Nop: range accesses skip event emission
	nextID uint32
}

// NewSpace returns a Space recording to rec (trace.Nop{} if nil) and
// charging cost (may be nil for free memory).
func NewSpace(rec trace.Recorder, cost *CostModel) *Space {
	if rec == nil {
		rec = trace.Nop{}
	}
	_, nop := rec.(trace.Nop)
	return &Space{rec: rec, cost: cost, nop: nop}
}

// Recorder returns the space's trace recorder.
func (s *Space) Recorder() trace.Recorder { return s.rec }

// Cost returns the space's cost model, or nil.
func (s *Space) Cost() *CostModel { return s.cost }

// Array is a traced slice of T living in public memory. ElemSize is the
// public fixed width of one element in bytes, used by the cost model to
// map element indices to memory pages.
type Array[T any] struct {
	space    *Space
	id       uint32
	elemSize int
	data     []T
}

// Alloc allocates a traced array of n elements of elemSize public bytes
// each. Allocation itself is not an observable data access.
func Alloc[T any](s *Space, n, elemSize int) *Array[T] {
	if elemSize <= 0 {
		elemSize = 1
	}
	id := s.nextID
	s.nextID++
	return &Array[T]{space: s, id: id, elemSize: elemSize, data: make([]T, n)}
}

// FromSlice wraps an existing slice as a traced array. The slice is used
// directly, not copied.
func FromSlice[T any](s *Space, data []T, elemSize int) *Array[T] {
	a := Alloc[T](s, 0, elemSize)
	a.data = data
	return a
}

// Len returns the (public) number of elements.
func (a *Array[T]) Len() int { return len(a.data) }

// ID returns the array's identifier as it appears in the trace.
func (a *Array[T]) ID() uint32 { return a.id }

// Get reads element i, emitting a read event.
func (a *Array[T]) Get(i int) T {
	a.touch(trace.Read, i)
	return a.data[i]
}

// Set writes element i, emitting a write event. The write happens
// unconditionally: writing back an unchanged value is indistinguishable
// from writing a new one (probabilistic re-encryption at the storage
// layer, see internal/crypto).
func (a *Array[T]) Set(i int, v T) {
	a.touch(trace.Write, i)
	a.data[i] = v
}

// GetRange reads the contiguous run [lo, lo+len(dst)) into dst, emitting
// one read event per element in ascending index order. Batching the
// accesses amortizes the per-element interface-call overhead of Get on
// hot paths (sorting-network rounds, linear scans); when the space is
// untraced and cost-free the whole range collapses to a single copy.
func (a *Array[T]) GetRange(lo int, dst []T) {
	a.touchRange(trace.Read, lo, len(dst))
	copy(dst, a.data[lo:lo+len(dst)])
}

// SetRange writes src over the contiguous run [lo, lo+len(src)),
// emitting one write event per element in ascending index order. As
// with Set, every element is written unconditionally.
func (a *Array[T]) SetRange(lo int, src []T) {
	a.touchRange(trace.Write, lo, len(src))
	copy(a.data[lo:lo+len(src)], src)
}

func (a *Array[T]) touchRange(op trace.Op, lo, n int) {
	// An explicit length check: slice expressions only bound against
	// capacity, which after a truncating Resize would let an
	// out-of-range batch silently read stale elements where the
	// equivalent Get/Set loop panics.
	if lo < 0 || n < 0 || lo+n > len(a.data) {
		panic(fmt.Sprintf("memory: range [%d,%d) out of bounds (len %d)", lo, lo+n, len(a.data)))
	}
	if a.space.nop && a.space.cost == nil {
		return
	}
	if a.space.cost != nil {
		// Cost-modeled accesses charge per element anyway; keep the
		// simple per-element path.
		for i := lo; i < lo+n; i++ {
			a.touch(op, i)
		}
		return
	}
	// Emit the event run through the recorder's run interface: one
	// dynamic dispatch for the whole range and no materialized event
	// slice (a stack-side event buffer would escape through the
	// interface call and allocate per range). Recorders without
	// RecordRun get the equivalent per-event loop.
	trace.RecordRunTo(a.space.rec, op, a.id, uint64(lo), n)
}

// Traced reports whether accesses to this array have an observable
// side effect (a non-Nop recorder). table.Builder consults it to decide
// whether its writes need deferred-event buffering at all.
func (a *Array[T]) Traced() bool { return !a.space.nop }

// Recorder returns the recorder that this array's accesses feed; a
// shard's buffered events are replayed into it.
func (a *Array[T]) Recorder() trace.Recorder { return a.space.rec }

// Shard returns an alias of the array — same identifier, same backing
// data — whose accesses are recorded to rec (trace.Nop{} if nil)
// instead of the parent space's recorder, and charged to no cost model.
// Its one user is table.Builder's deferred write replay: the builder
// fills a store through a shard recording into a trace.RunBuffer and
// replays the buffer into the real recorder once the fill is done, so
// the canonical trace keeps its collect-then-load order.
//
// Shard returns nil when the parent space has a cost model attached:
// the enclave simulation's paging state is order-dependent, so such
// arrays are written directly.
//
// The untyped return (asserted to the caller's array interface) keeps
// this package free of dependencies on its consumers.
func (a *Array[T]) Shard(rec trace.Recorder) any {
	if a.space.cost != nil {
		return nil
	}
	if rec == nil {
		rec = trace.Nop{}
	}
	_, nop := rec.(trace.Nop)
	return &Array[T]{
		space:    &Space{rec: rec, nop: nop},
		id:       a.id,
		elemSize: a.elemSize,
		data:     a.data,
	}
}

// Resize grows or truncates the array to n elements. The reallocation is
// not an observable per-element access (it models fresh allocation whose
// size is public).
func (a *Array[T]) Resize(n int) {
	if n <= cap(a.data) {
		a.data = a.data[:n]
		return
	}
	nd := make([]T, n)
	copy(nd, a.data)
	a.data = nd
}

// Raw exposes the backing slice for test assertions and final output
// extraction. Production algorithm code must never use Raw on secret
// data; it bypasses the trace.
func (a *Array[T]) Raw() []T { return a.data }

func (a *Array[T]) touch(op trace.Op, i int) {
	a.space.rec.Record(trace.Event{Op: op, Array: a.id, Index: uint64(i)})
	if a.space.cost != nil {
		a.space.cost.charge(a.id, uint64(i)*uint64(a.elemSize), a.elemSize)
	}
}

// pageKey identifies one EPC-resident page of one array.
type pageKey struct {
	array uint32
	page  uint64
}

// CostModel simulates the timing behaviour of running inside a hardware
// enclave. Each public-memory access costs AccessCost; when the set of
// touched pages exceeds EPCBytes, further faults evict the oldest
// resident page (FIFO, approximating SGX's paging) and cost MissCost.
//
// It accumulates simulated time in Elapsed; the caller adds that to (or
// scales) measured wall time to produce the SGX curves of Figure 8.
type CostModel struct {
	PageSize   int           // bytes per page (default 4096)
	EPCBytes   int64         // enclave page cache capacity
	AccessCost time.Duration // charged on every access
	MissCost   time.Duration // charged on every page fault past warmup

	Elapsed  time.Duration // accumulated simulated time
	Accesses uint64        // total accesses charged
	Faults   uint64        // page faults beyond EPC capacity

	resident map[pageKey]int // page → position in fifo
	fifo     []pageKey
	head     int
}

// DefaultSGX returns a cost model matching the paper's description of the
// evaluation platform: ~93 MiB usable EPC, 4 KiB pages, a small constant
// overhead per enclave access and an expensive page swap.
func DefaultSGX() *CostModel {
	return &CostModel{
		PageSize:   4096,
		EPCBytes:   93 << 20,
		AccessCost: 90 * time.Nanosecond,
		MissCost:   8 * time.Microsecond,
	}
}

// DefaultSGXTransformed is DefaultSGX with the per-access cost raised by
// the constant factor of the §3.4 level-III transformation. The paper
// measures its transformed SGX binary at ≈11% over the plain SGX one
// (6.30 s vs 5.67 s at n = 10⁶, Figure 8); the transformation replaces
// each conditional with both branches' arithmetic, a per-instruction
// constant, so a scaled access cost is the faithful model.
func DefaultSGXTransformed() *CostModel {
	c := DefaultSGX()
	c.AccessCost = c.AccessCost * 111 / 100
	c.MissCost = c.MissCost * 111 / 100
	return c
}

func (c *CostModel) pages() int {
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	n := int(c.EPCBytes / int64(c.PageSize))
	if n < 1 {
		n = 1
	}
	return n
}

func (c *CostModel) charge(array uint32, byteOff uint64, elemSize int) {
	c.Accesses++
	c.Elapsed += c.AccessCost
	if c.EPCBytes <= 0 {
		return
	}
	if c.resident == nil {
		c.resident = make(map[pageKey]int)
	}
	// An element may straddle a page boundary; touch every page it spans.
	first := byteOff / uint64(c.PageSize)
	last := (byteOff + uint64(elemSize) - 1) / uint64(c.PageSize)
	for p := first; p <= last; p++ {
		c.touchPage(pageKey{array, p})
	}
}

func (c *CostModel) touchPage(k pageKey) {
	if _, ok := c.resident[k]; ok {
		return
	}
	capPages := c.pages()
	if len(c.resident) >= capPages {
		// Evict oldest (FIFO).
		for {
			victim := c.fifo[c.head]
			c.head++
			if pos, ok := c.resident[victim]; ok && pos < c.head {
				delete(c.resident, victim)
				break
			}
		}
		c.Faults++
		c.Elapsed += c.MissCost
	}
	c.fifo = append(c.fifo, k)
	c.resident[k] = len(c.fifo) - 1
}

// Reset clears accumulated statistics and residency, keeping parameters.
func (c *CostModel) Reset() {
	c.Elapsed = 0
	c.Accesses = 0
	c.Faults = 0
	c.resident = nil
	c.fifo = nil
	c.head = 0
}
