package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/query"
	"oblivjoin/internal/table"
)

// blockingFixture returns a service with admission capacity 1 (queue
// depth q) over a small table, plus a function that occupies the one
// admission slot until the returned release func is called.
func blockingFixture(t *testing.T, q int) (*Service, func() (release func())) {
	t.Helper()
	s, err := New(Config{MaxInFlight: 1, MaxQueue: q})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 64)
	for i := range rows {
		rows[i] = table.Row{J: uint64(i), D: table.MustData("x")}
	}
	if err := s.Register("t", rows); err != nil {
		t.Fatal(err)
	}
	hold := func() func() {
		if err := s.adm.acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		return func() { s.adm.release(1) }
	}
	return s, hold
}

// TestAdmissionRejectsWhenQueueFull: capacity 1 held, single queue
// slot occupied → an arriving query is refused immediately with
// ErrOverloaded and counted as a rejection; the queued waiter is
// admitted FIFO when capacity frees.
func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	s, hold := blockingFixture(t, 1)
	release := hold()

	// Fill the single queue slot with a waiter.
	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	defer waiterCancel()
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- s.adm.acquire(waiterCtx, 1) }()
	waitUntil(t, func() bool { _, q, _ := s.adm.snapshot(); return q == 1 })

	// Queue full: the next query is rejected with ErrOverloaded.
	_, _, err := s.Query(context.Background(), "SELECT key FROM t")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}

	// Capacity frees → the queued waiter is admitted FIFO.
	release()
	if err := <-waiterErr; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	s.adm.release(1)
}

// TestAdmissionQueueRespectsDeadline: a queued query whose context
// expires leaves the queue with a typed deadline error.
func TestAdmissionQueueRespectsDeadline(t *testing.T) {
	s, hold := blockingFixture(t, 4)
	release := hold()
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := s.Query(ctx, "SELECT key FROM t")
	if !errors.Is(err, query.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if _, q, _ := s.adm.snapshot(); q != 0 {
		t.Fatalf("expired waiter still queued (%d)", q)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}
}

// TestAdmissionWeightsByCost: a query over big tables occupies more
// capacity than a small one — with capacity 2 and a 2-unit statement
// in flight, a 1-unit statement must queue.
func TestAdmissionWeightsByCost(t *testing.T) {
	s, err := New(Config{MaxInFlight: 2, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]table.Row, 2*CostQuantum) // 2 units on its own
	for i := range big {
		big[i] = table.Row{J: uint64(i), D: table.MustData("b")}
	}
	small := []table.Row{{J: 1, D: table.MustData("s")}}
	if err := s.Register("big", big); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("small", small); err != nil {
		t.Fatal(err)
	}
	stBig, err := s.Prepare(context.Background(), "SELECT key FROM big WHERE key < 9")
	if err != nil {
		t.Fatal(err)
	}
	stSmall, err := s.Prepare(context.Background(), "SELECT key FROM small")
	if err != nil {
		t.Fatal(err)
	}
	if w := s.cost(s.cat.Pin(), stBig.tables); w != 2 {
		t.Fatalf("big statement cost = %d, want 2", w)
	}
	if w := s.cost(s.cat.Pin(), stSmall.tables); w != 1 {
		t.Fatalf("small statement cost = %d, want 1", w)
	}

	// Occupy the big statement's 2 units directly; the small statement
	// must queue (not reject: queue has room), then proceed on release.
	if err := s.adm.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := stSmall.Exec(context.Background())
		done <- err
	}()
	waitUntil(t, func() bool { _, q, _ := s.adm.snapshot(); return q == 1 })
	s.adm.release(2)
	if err := <-done; err != nil {
		t.Fatalf("queued small query: %v", err)
	}
}

// TestAdmissionCancelledWaiterUnblocksQueue: cancelling a heavy
// waiter at the head of the queue immediately admits lighter waiters
// behind it that fit the free capacity — no release required.
func TestAdmissionCancelledWaiterUnblocksQueue(t *testing.T) {
	a := newAdmitter(3, 8)
	if err := a.acquire(context.Background(), 2); err != nil { // 1 unit free
		t.Fatal(err)
	}
	heavyCtx, heavyCancel := context.WithCancel(context.Background())
	heavyErr := make(chan error, 1)
	go func() { heavyErr <- a.acquire(heavyCtx, 2) }() // doesn't fit, queues
	waitUntil(t, func() bool { _, q, _ := a.snapshot(); return q == 1 })
	lightErr := make(chan error, 1)
	go func() { lightErr <- a.acquire(context.Background(), 1) }() // fits, but FIFO-blocked
	waitUntil(t, func() bool { _, q, _ := a.snapshot(); return q == 2 })

	heavyCancel()
	if err := <-heavyErr; !errors.Is(err, query.ErrCanceled) {
		t.Fatalf("heavy waiter: %v, want ErrCanceled", err)
	}
	select {
	case err := <-lightErr:
		if err != nil {
			t.Fatalf("light waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("light waiter still blocked after the heavy waiter ahead of it was cancelled")
	}
	a.release(1)
	a.release(2)
}

// TestAdmissionUnboundedByDefault: the zero config admits any
// concurrency (the pre-admission behavior) while still tracking
// in-flight counts for stats.
func TestAdmissionUnboundedByDefault(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := []table.Row{{J: 1, D: table.MustData("x")}}
	if err := s.Register("t", rows); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Query(context.Background(), "SELECT key FROM t"); err != nil {
				t.Errorf("unbounded query: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != 32 || st.Rejected != 0 || st.Capacity != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.P50NS <= 0 || st.P95NS < st.P50NS {
		t.Fatalf("percentiles = %+v", st)
	}
}

// TestShutdownDrainsInFlight: Shutdown waits for executing queries,
// fails queued and new ones with ErrShuttingDown, is idempotent, and
// leaves no goroutine behind.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, hold := blockingFixture(t, 4)
	base := runtime.NumGoroutine()
	release := hold() // simulated in-flight query

	// A queued waiter must fail with ErrShuttingDown at close.
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- s.adm.acquire(context.Background(), 1) }()
	waitUntil(t, func() bool { _, q, _ := s.adm.snapshot(); return q == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	if err := <-queuedErr; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("queued waiter got %v, want ErrShuttingDown", err)
	}

	// New queries are refused while draining.
	if _, _, err := s.Query(context.Background(), "SELECT key FROM t"); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("query during drain: %v, want ErrShuttingDown", err)
	}
	if _, err := s.Prepare(context.Background(), "SELECT key FROM t"); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("prepare during drain: %v, want ErrShuttingDown", err)
	}

	// Shutdown blocks until the in-flight query releases.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight query drained", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if st := s.Stats(); !st.ShuttingDown {
		t.Fatalf("stats = %+v, want ShuttingDown", st)
	}
	waitUntil(t, func() bool { return runtime.NumGoroutine() <= base })
}

// TestShutdownDrainsTimeout: a drain that outlives its context returns
// the context's error instead of hanging.
func TestShutdownDrainsTimeout(t *testing.T) {
	s, hold := blockingFixture(t, 4)
	release := hold()
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

// waitUntil polls cond for up to a second.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}
