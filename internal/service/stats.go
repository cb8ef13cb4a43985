package service

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// This file is the service's observability surface: cumulative outcome
// counters, a fixed-size ring of recent query latencies from which the
// p50/p95/p99 percentiles are computed on demand, and a goroutine
// high-water mark sampled at query boundaries. Everything here is
// outside the oblivious perimeter — it observes wall time and outcome
// kinds, both of which are public — and costs one short mutex section
// per query.

// latencyRingSize is the number of recent latencies percentiles are
// computed over. 1024 keeps the ring's memory trivial while making
// p99 meaningful (≈10 samples above it at full occupancy).
const latencyRingSize = 1024

// metrics accumulates the service's runtime counters.
type metrics struct {
	mu        sync.Mutex
	inFlight  int
	started   uint64
	completed uint64
	failed    uint64
	rejected  uint64
	canceled  uint64
	hwm       int

	lat  [latencyRingSize]int64
	latN uint64 // total latencies ever recorded
}

// sampleGoroutines folds the current goroutine count into the
// high-water mark; called at query start so the mark reflects peak
// concurrency, not idle baseline.
func (m *metrics) sampleGoroutines() {
	if g := runtime.NumGoroutine(); g > m.hwm {
		m.hwm = g
	}
}

// begin records an admitted query starting execution.
func (m *metrics) begin() {
	m.mu.Lock()
	m.started++
	m.inFlight++
	m.sampleGoroutines()
	m.mu.Unlock()
}

// end records an admitted query's terminal outcome. Latency lands in
// the percentile ring only for completed queries — rejection and
// cancellation latencies would poison the tail percentiles with
// whatever the timeout knob is set to.
func (m *metrics) end(d time.Duration, outcome outcome) {
	m.mu.Lock()
	m.inFlight--
	switch outcome {
	case outcomeCompleted:
		m.completed++
		m.lat[m.latN%latencyRingSize] = d.Nanoseconds()
		m.latN++
	case outcomeCanceled:
		m.canceled++
	default:
		m.failed++
	}
	m.mu.Unlock()
}

// reject records a query refused at admission (queue full, shutdown)
// or cancelled while queued.
func (m *metrics) reject(canceled bool) {
	m.mu.Lock()
	if canceled {
		m.canceled++
	} else {
		m.rejected++
	}
	m.mu.Unlock()
}

// outcome classifies a terminal query state for the counters.
type outcome int

const (
	outcomeCompleted outcome = iota
	outcomeCanceled
	outcomeFailed
)

// percentilesLocked computes p50/p95/p99 over the occupied portion of
// the latency ring (on a sorted copy). Zeroes when no query has
// completed yet.
func (m *metrics) percentilesLocked() (p50, p95, p99 int64) {
	n := int(m.latN)
	if n > latencyRingSize {
		n = latencyRingSize
	}
	buf := make([]int64, n)
	copy(buf, m.lat[:n])
	return latencyPercentiles(buf)
}

// latencyPercentiles computes nearest-rank p50/p95/p99 over ns,
// sorting it in place; zeroes when empty. /stats reports through it.
func latencyPercentiles(ns []int64) (p50, p95, p99 int64) {
	n := len(ns)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	rank := func(q float64) int64 {
		i := int(q*float64(n)+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return ns[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}

// ServiceStats is the service's /stats report: admission occupancy,
// cumulative outcome counters, latency percentiles over the last
// latencyRingSize completed queries, and the goroutine high-water
// mark.
type ServiceStats struct {
	// InFlight counts queries currently executing; InFlightCost is
	// their summed admission cost (units of CostQuantum rows).
	InFlight     int   `json:"in_flight"`
	InFlightCost int64 `json:"in_flight_cost"`
	// Queued counts queries waiting for admission.
	Queued int `json:"queued"`
	// Capacity is the admission bound in cost units; 0 = unbounded.
	Capacity int64 `json:"capacity"`
	// Started counts admitted executions; Completed/Failed/Canceled
	// partition their outcomes. Rejected counts queries refused at
	// admission (queue full or shutdown).
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Canceled  uint64 `json:"canceled"`
	// LatencySamples is the number of completed queries the
	// percentiles are computed over (at most latencyRingSize).
	LatencySamples int   `json:"latency_samples"`
	P50NS          int64 `json:"p50_ns"`
	P95NS          int64 `json:"p95_ns"`
	P99NS          int64 `json:"p99_ns"`
	// GoroutineHWM is the highest goroutine count observed at a query
	// start since the service was built.
	GoroutineHWM int `json:"goroutine_hwm"`
	// ShuttingDown reports that Shutdown has begun.
	ShuttingDown bool `json:"shutting_down"`
	// Health is the aggregate health state machine: durable-layer
	// degradation joined with the catalog quarantine set (health.go).
	Health Health `json:"health"`
}

// Stats reports the service's admission and latency counters.
func (s *Service) Stats() ServiceStats {
	inUse, queued, closed := s.adm.snapshot()
	m := s.met
	m.mu.Lock()
	defer m.mu.Unlock()
	n := int(m.latN)
	if n > latencyRingSize {
		n = latencyRingSize
	}
	p50, p95, p99 := m.percentilesLocked()
	capacity := s.adm.capacity
	if capacity < 0 {
		capacity = 0
	}
	return ServiceStats{
		InFlight:       m.inFlight,
		InFlightCost:   inUse,
		Queued:         queued,
		Capacity:       capacity,
		Started:        m.started,
		Completed:      m.completed,
		Failed:         m.failed,
		Rejected:       m.rejected,
		Canceled:       m.canceled,
		LatencySamples: n,
		P50NS:          p50,
		P95NS:          p95,
		P99NS:          p99,
		GoroutineHWM:   m.hwm,
		ShuttingDown:   closed,
		Health:         s.Health(),
	}
}
