package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/core"
	"oblivjoin/internal/query"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
)

// bigRows builds an n-row one-to-one table: every key distinct, so a
// self-shaped join sorts the full 2n augmented store — the heaviest
// sort the service runs at that size.
func bigRows(n int, tag string) []table.Row {
	out := make([]table.Row, n)
	for i := range out {
		out[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("%s%d", tag, i%1000))}
	}
	return out
}

// probeCtx is a cancellable context whose cancellation is a schedule
// position rather than a moment: Done is non-nil, so the run installs
// its probes, and Err reports context.Canceled from its k-th call on
// (never when k ≤ 0). It counts the calls and stamps the first failing
// one. The service calls it from the executing goroutine only.
type probeCtx struct {
	context.Context
	done     chan struct{} // never closed
	k, calls int
	failedAt time.Time
}

func newProbeCtx(k int) *probeCtx {
	return &probeCtx{Context: context.Background(), done: make(chan struct{}), k: k}
}

func (c *probeCtx) Done() <-chan struct{} { return c.done }

func (c *probeCtx) Err() error {
	c.calls++
	if c.k <= 0 || c.calls < c.k {
		return nil
	}
	if c.calls == c.k {
		c.failedAt = time.Now()
	}
	return context.Canceled
}

// cfgTap is a pass-through stage that keeps the run's core.Config, so
// a test can read the comparators a run executed even when it aborts.
type cfgTap struct{ cfg **core.Config }

func (cfgTap) Name() string { return "cfg-tap" }

func (t cfgTap) RunStream(ctx *exec.Context, src exec.RowSource) (exec.RowSource, error) {
	*t.cfg = ctx.Cfg
	return src, nil
}

// TestCancelMidSortEncrypted is the acceptance contract of
// cancellation: a join over encrypted stores, cancelled while one of
// its oblivious sorts is in flight, returns a typed context error
// promptly after the cancellation, having executed some but not all of
// its modeled comparators (a sort counts its comparators when it
// finishes), and the service stays healthy — the next run's trace hash
// is bit-identical to an undisturbed run's. The cancellation lands at
// a chosen probe of the run's fixed schedule: half-way through the
// probes a full run makes.
func TestCancelMidSortEncrypted(t *testing.T) {
	const sql = "SELECT key, left.data, right.data FROM big JOIN big2 USING (key)"
	s, err := New(Config{Defaults: query.Options{Encrypted: true, TraceHash: true, CollectStats: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"big", "big2"} {
		if err := s.Register(name, bigRows(512, name)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Prepare(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	var cfg *core.Config
	tapped := *st
	tapped.pipeline = append([]exec.Operator{st.pipeline[0], cfgTap{&cfg}}, st.pipeline[1:]...)

	// Reference run to completion, counting the probes of the schedule.
	counter := newProbeCtx(0)
	_, refPS, err := tapped.Exec(counter)
	if err != nil {
		t.Fatal(err)
	}
	if refPS.TraceHash == "" || refPS.Comparators != st.Model().Comparators {
		t.Fatalf("reference run: hash %q, %d comparators, modeled %d", refPS.TraceHash, refPS.Comparators, st.Model().Comparators)
	}

	cancel := newProbeCtx(counter.calls / 2)
	_, _, err = tapped.Exec(cancel)
	returned := time.Now()
	if !errors.Is(err, query.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if obs := cfg.Stats.Comparators(); obs == 0 || obs >= st.Model().Comparators {
		t.Fatalf("cancelled run executed %d comparators, want some but fewer than the modeled %d", obs, st.Model().Comparators)
	}
	if lat := returned.Sub(cancel.failedAt); lat > 250*time.Millisecond {
		t.Fatalf("cancellation latency %v exceeds 250ms", lat)
	}

	// The service stays healthy: the same statement still executes and
	// reproduces the reference hash bit for bit.
	_, ps, err := st.Exec(context.Background())
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	if ps.TraceHash != refPS.TraceHash {
		t.Fatalf("trace hash after cancellation %s != reference %s", ps.TraceHash, refPS.TraceHash)
	}
	stats := s.Stats()
	if stats.Canceled == 0 || stats.Completed < 2 {
		t.Fatalf("stats after cancellation: %+v", stats)
	}
}

// TestCancelDeadlineTyped: a deadline expiry mid-run surfaces as
// ErrDeadline (and context.DeadlineExceeded), distinct from
// ErrCanceled.
func TestCancelDeadlineTyped(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("big", bigRows(16384, "b")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err = s.Query(ctx, "SELECT key, left.data, right.data FROM big JOIN big USING (key)")
	if !errors.Is(err, query.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline/DeadlineExceeded", err)
	}
	if errors.Is(err, query.ErrCanceled) {
		t.Fatalf("deadline error %v also matches ErrCanceled", err)
	}
}

// TestCancelNeighborsUnaffected runs concurrent executions of one
// prepared statement, cancels half of them mid-flight, and checks
// every completed neighbor returned the reference trace hash — a
// cancelled run must not perturb anyone else's access pattern.
func TestCancelNeighborsUnaffected(t *testing.T) {
	s, err := New(Config{Defaults: query.Options{TraceHash: true, CollectStats: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("t1", bigRows(4096, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("t2", bigRows(4096, "b")); err != nil {
		t.Fatal(err)
	}
	st, err := s.Prepare(context.Background(), "SELECT key, left.data, right.data FROM t1 JOIN t2 USING (key)")
	if err != nil {
		t.Fatal(err)
	}
	_, refPS, err := st.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const pairs = 4
	var wg sync.WaitGroup
	errs := make([]error, 2*pairs)
	hashes := make([]string, 2*pairs)
	for i := 0; i < pairs; i++ {
		// Even slots run to completion; odd slots get cancelled early.
		wg.Add(2)
		go func(slot int) {
			defer wg.Done()
			_, ps, err := st.Exec(context.Background())
			errs[slot] = err
			if ps != nil {
				hashes[slot] = ps.TraceHash
			}
		}(2 * i)
		go func(slot int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Duration(1+slot) * time.Millisecond)
				cancel()
			}()
			_, _, err := st.Exec(ctx)
			errs[slot] = err
		}(2*i + 1)
	}
	wg.Wait()
	for i := 0; i < 2*pairs; i += 2 {
		if errs[i] != nil {
			t.Fatalf("neighbor %d failed: %v", i, errs[i])
		}
		if hashes[i] != refPS.TraceHash {
			t.Fatalf("neighbor %d trace hash %s != reference %s", i, hashes[i], refPS.TraceHash)
		}
	}
	for i := 1; i < 2*pairs; i += 2 {
		if errs[i] != nil && !errors.Is(errs[i], query.ErrCanceled) {
			t.Fatalf("cancelled slot %d returned %v", i, errs[i])
		}
	}
}

// TestCancelMidSortDropReplaceRace races Drop/Replace of a table
// against concurrent cancelled and uncancelled executions — run under
// -race in CI. Every outcome must be one of: success, a typed
// cancellation, or a typed unknown-table error; never a torn result or
// a data race.
func TestCancelMidSortDropReplaceRace(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := bigRows(2048, "a")
	if err := s.Register("hot", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("dim", bigRows(256, "d")); err != nil {
		t.Fatal(err)
	}
	st, err := s.Prepare(context.Background(), "SELECT key, left.data, right.data FROM hot JOIN dim USING (key)")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Mutator: flip the table in and out of existence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				_ = s.Drop("hot")
			} else {
				_ = s.Replace("hot", rows)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Executors: half run with tight deadlines, half unbounded.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx := context.Background()
				if g%2 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i)*time.Millisecond)
					defer cancel()
				}
				_, _, err := st.Exec(ctx)
				var unknown *catalog.UnknownTableError
				switch {
				case err == nil:
				case errors.Is(err, query.ErrCanceled), errors.Is(err, query.ErrDeadline):
				case errors.As(err, &unknown):
				default:
					t.Errorf("executor %d: unexpected error %v", g, err)
				}
			}
		}(g)
	}
	// Let mutator overlap the executors, then stop it.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	// The catalog must still be usable.
	if err := s.Replace("hot", rows); err != nil {
		t.Fatalf("Replace after race: %v", err)
	}
	if _, _, err := s.Query(context.Background(), "SELECT key FROM hot WHERE key < 4"); err != nil {
		t.Fatalf("query after race: %v", err)
	}
}
