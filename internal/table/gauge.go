package table

import (
	"sync"

	"oblivjoin/internal/crypto"
)

// Gauge tracks the engine-held bytes of one query run: every store
// allocated through the run's Alloc is registered with its heap
// footprint, relation hand-off buffers are charged by the driver, and
// the executor discharges each item the moment it is done with it. Peak
// is therefore the run's peak outstanding engine allocation — the
// widest adjacent pair of stages — and a deterministic, GC-independent
// function of the plan and the (public) table sizes, which is what
// makes it safe to gate in CI and meaningful for admission control.
//
// A Gauge is safe for concurrent use; the registry also carries cleanup
// hooks (spill-file deletion), so ReleaseAll at the end of a run frees
// whatever the run abandoned, including after a cancellation panic.
type Gauge struct {
	mu         sync.Mutex
	live       int64
	peak       int64
	total      int64
	spills     int64
	spillBytes int64
	tracked    map[Store]trackedStore
}

type trackedStore struct {
	bytes   int64
	cleanup func()
}

func (g *Gauge) charge(n int64) {
	g.live += n
	if g.live > g.peak {
		g.peak = g.live
	}
	if n > 0 {
		g.total += n
	}
}

// Charge adds n live bytes (driver-side buffers: relation slices,
// batch buffers, materialized results).
func (g *Gauge) Charge(n int64) {
	if g == nil || n == 0 {
		return
	}
	g.mu.Lock()
	g.charge(n)
	g.mu.Unlock()
}

// Discharge removes n live bytes previously charged.
func (g *Gauge) Discharge(n int64) {
	if g == nil || n == 0 {
		return
	}
	g.mu.Lock()
	g.live -= n
	g.mu.Unlock()
}

// Track registers a store with its heap footprint and an optional
// cleanup hook, charging the footprint as live.
func (g *Gauge) Track(st Store, bytes int64, cleanup func()) {
	if g == nil {
		if cleanup != nil {
			cleanup()
		}
		return
	}
	g.mu.Lock()
	if g.tracked == nil {
		g.tracked = map[Store]trackedStore{}
	}
	ts := trackedStore{bytes: bytes, cleanup: cleanup}
	if old, ok := g.tracked[st]; ok {
		// Re-registering merges: the footprints add and both cleanup
		// hooks run on release.
		ts.bytes += old.bytes
		if old.cleanup != nil && cleanup != nil {
			oldClean := old.cleanup
			ts.cleanup = func() { cleanup(); oldClean() }
		} else if cleanup == nil {
			ts.cleanup = old.cleanup
		}
	}
	g.tracked[st] = ts
	g.charge(bytes)
	g.mu.Unlock()
}

// Spilled records that one intermediate of bytes on-disk bytes went to
// the spill store instead of the heap.
func (g *Gauge) Spilled(bytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.spills++
	g.spillBytes += bytes
	g.mu.Unlock()
}

// Release discharges a tracked store and runs its cleanup hook.
// Unknown stores and repeated releases are no-ops, so streaming stages
// can release eagerly without coordinating with the run's teardown.
func (g *Gauge) Release(st Store) {
	if g == nil || st == nil {
		return
	}
	g.mu.Lock()
	ts, ok := g.tracked[st]
	if ok {
		delete(g.tracked, st)
		g.live -= ts.bytes
	}
	g.mu.Unlock()
	if ok && ts.cleanup != nil {
		ts.cleanup()
	}
}

// ReleaseAll discharges every still-tracked store and runs the cleanup
// hooks; the run-end backstop that guarantees spill files never outlive
// their query, however the run ended.
func (g *Gauge) ReleaseAll() {
	if g == nil {
		return
	}
	g.mu.Lock()
	var hooks []func()
	for st, ts := range g.tracked {
		delete(g.tracked, st)
		g.live -= ts.bytes
		if ts.cleanup != nil {
			hooks = append(hooks, ts.cleanup)
		}
	}
	g.mu.Unlock()
	for _, h := range hooks {
		h()
	}
}

// Absorb folds the readings of child gauges that ran concurrently on
// top of g's current live bytes: peak is the summed high-water marks of
// the children (the sharded executor assumes every concurrent unit hits
// its peak at once, a deterministic upper bound), total/spills/
// spillBytes accumulate. Children account their own stores in their own
// gauges, so the parent's live figure is untouched.
func (g *Gauge) Absorb(peak, total, spills, spillBytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.live+peak > g.peak {
		g.peak = g.live + peak
	}
	g.total += total
	g.spills += spills
	g.spillBytes += spillBytes
	g.mu.Unlock()
}

// Live returns the current outstanding bytes.
func (g *Gauge) Live() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.live
}

// Peak returns the high-water mark of outstanding bytes.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Total returns the cumulative bytes charged over the run's lifetime.
func (g *Gauge) Total() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.total
}

// Spills returns how many intermediates were diverted to spill storage.
func (g *Gauge) Spills() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spills
}

// SpillBytes returns the cumulative on-disk bytes of spilled
// intermediates.
func (g *Gauge) SpillBytes() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spillBytes
}

// ReleaseStore releases st from g; both may be nil. The free function
// the streaming stages call when a drained store is dead.
func ReleaseStore(g *Gauge, st Store) { g.Release(st) }

// ── heap footprints ──────────────────────────────────────────────────
//
// The per-kind footprint formulas below are the accounting weights the
// budget allocator predicts with and the gauge charges: the dominant
// backing allocation of each store kind, ignoring constant-size struct
// overhead. They only need to be deterministic and consistent between
// prediction and charge.

// PlainFootprint is the heap bytes of a plain store of n entries.
func PlainFootprint(n int) int64 { return int64(n) * EncodedSize }

// BlockFootprint is the heap bytes of a block-sealed store with b
// entries per block (b ≤ 0 selects DefaultSealedBlock).
func BlockFootprint(n, b int) int64 {
	if b <= 0 {
		b = DefaultSealedBlock
	}
	nb := (n + b - 1) / b
	return int64(nb) * int64(crypto.SealedLen(b*EncodedSize))
}

// Footprint reports the heap footprint of an allocated store using the
// same formulas as the predictors above. A sealed store answers for its
// backing: blocks in a spill file weigh zero by this accounting.
func Footprint(st Store) int64 {
	if s, ok := st.(*BlockEncrypted); ok {
		return s.st.bk.heapBytes()
	}
	return PlainFootprint(st.Len())
}

// TrackedAlloc wraps base so every allocated store is registered in g
// with its heap footprint. The stores themselves are returned untouched
// (no wrapper type), so range, trace and sharding capabilities keep
// type-asserting exactly as before.
func TrackedAlloc(base Alloc, g *Gauge) Alloc {
	if g == nil {
		return base
	}
	return func(n int) Store {
		st := base(n)
		g.Track(st, Footprint(st), nil)
		return st
	}
}
