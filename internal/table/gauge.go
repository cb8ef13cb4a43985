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
// A Gauge is safe for concurrent use. It lives for one run: a store the
// run abandons (after an error or a cancellation panic) stays charged
// and is dropped with the gauge.
type Gauge struct {
	mu      sync.Mutex
	live    int64
	peak    int64
	total   int64
	tracked map[Store]int64 // store → charged heap footprint
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

// Track registers a store with its heap footprint, charging the
// footprint as live. Re-registering a store adds to its footprint.
func (g *Gauge) Track(st Store, bytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.tracked == nil {
		g.tracked = map[Store]int64{}
	}
	g.tracked[st] += bytes
	g.charge(bytes)
	g.mu.Unlock()
}

// Release discharges a tracked store. Unknown stores and repeated
// releases are no-ops, so streaming stages can release eagerly without
// coordinating with the run's teardown.
func (g *Gauge) Release(st Store) {
	if g == nil || st == nil {
		return
	}
	g.mu.Lock()
	if bytes, ok := g.tracked[st]; ok {
		delete(g.tracked, st)
		g.live -= bytes
	}
	g.mu.Unlock()
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

// ── heap footprints ──────────────────────────────────────────────────
//
// The per-kind footprint formulas below are the accounting weights the
// gauge charges and the cost model predicts with: the dominant
// allocation of each store kind, ignoring constant-size struct
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
// same formulas as the predictors above.
func Footprint(st Store) int64 {
	if s, ok := st.(*BlockEncrypted); ok {
		return int64(len(s.st.ct))
	}
	return PlainFootprint(st.Len())
}

// TrackedAlloc wraps base so every allocated store is registered in g
// with its heap footprint. The stores themselves are returned untouched
// (no wrapper type), so range and trace-shard capabilities keep
// type-asserting exactly as before.
func TrackedAlloc(base Alloc, g *Gauge) Alloc {
	if g == nil {
		return base
	}
	return func(n int) Store {
		st := base(n)
		g.Track(st, Footprint(st))
		return st
	}
}
