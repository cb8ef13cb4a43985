package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/fault"
	"oblivjoin/internal/wal"
)

// This file is the service-level chaos suite: query and write load
// under injected storage faults, asserting the containment contract —
// the daemon never crashes, every affected operation fails with a
// typed error, unaffected concurrent queries return bit-identical rows
// and trace hashes, and the engine re-enters ok health after the
// faults clear and a checkpoint succeeds.

const chaosSQL = "SELECT key, left.data, right.data FROM users JOIN orders USING (key)"

// drain reads and closes a response body, returning it as a string.
func drain(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// refResult executes chaosSQL once on a fault-free service and returns
// the rows and trace hash every chaos run must reproduce.
func refResult(t *testing.T) ([][]string, string) {
	t.Helper()
	s := newFixture(t, Config{})
	defer s.Shutdown(context.Background())
	res, ps, err := s.Query(context.Background(), chaosSQL, WithTraceHash(true))
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows, ps.TraceHash
}

// TestChaosWALFaultsContained: writers hammer a durable service while
// the WAL path fails persistently; queries keep serving bit-identical
// results throughout, writers see only typed errors, and recovery is
// complete after the fault clears. A snapshot fault follows, contained
// the same way, and a fault-free reopen of the data directory
// reproduces the reference rows and trace hash.
func TestChaosWALFaultsContained(t *testing.T) {
	wantRows, wantHash := refResult(t)
	in := fault.NewInjector(nil, 99)
	dir := t.TempDir()
	s := newFixture(t, Config{
		DataDir:      dir,
		FS:           in,
		RetryBackoff: 50 * time.Microsecond,
	})
	defer s.Shutdown(context.Background())

	in.Arm(fault.Rule{Op: fault.OpWrite, Path: "wal-", Err: fault.ENOSPC})

	var wg sync.WaitGroup
	var writeErrs, untypedErrs int64
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				err := s.Replace(fmt.Sprintf("scratch%d", w), fixtureRows(4, "x"))
				if err == nil {
					continue
				}
				mu.Lock()
				writeErrs++
				if !errors.Is(err, wal.ErrReadOnly) && !fault.IsInjectable(err) {
					untypedErrs++
					t.Errorf("writer got untyped error: %v", err)
				}
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, ps, err := s.Query(context.Background(), chaosSQL, WithTraceHash(true))
				if err != nil {
					t.Errorf("reader failed under WAL fault: %v", err)
					return
				}
				if !reflect.DeepEqual(res.Rows, wantRows) || ps.TraceHash != wantHash {
					t.Error("reader result diverged under WAL fault")
					return
				}
			}
		}()
	}
	wg.Wait()
	if writeErrs == 0 {
		t.Fatal("fault schedule never fired — the chaos run tested nothing")
	}
	if h := s.Health(); h.State != wal.HealthReadOnly {
		t.Fatalf("health = %+v, want read-only under persistent WAL fault", h)
	}
	// Mutations are refused typed while read-only.
	if err := s.Register("late", fixtureRows(4, "l")); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("write while read-only = %v, want ErrReadOnly", err)
	}

	// Fault clears; a successful checkpoint is the recovery proof.
	in.Disarm()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after fault cleared: %v", err)
	}
	if h := s.Health(); h.State != wal.HealthOK {
		t.Fatalf("health after recovery = %+v, want ok", h)
	}
	if err := s.Register("late", fixtureRows(4, "l")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	checkQuery := func(s *Service, phase string) {
		t.Helper()
		res, ps, err := s.Query(context.Background(), chaosSQL, WithTraceHash(true))
		if err != nil || !reflect.DeepEqual(res.Rows, wantRows) || ps.TraceHash != wantHash {
			t.Fatalf("%s: query diverged: %v", phase, err)
		}
	}
	checkQuery(s, "post-recovery")

	// A failed snapshot degrades health but not commits; a checkpoint
	// after the fault clears succeeds.
	in.Arm(fault.Rule{Op: fault.OpOpen, Path: "snap-", Err: fault.EIO})
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint under snapshot fault succeeded")
	}
	if h := s.Health(); h.State != wal.HealthDegraded {
		t.Fatalf("health under snapshot fault = %+v, want degraded", h)
	}
	if err := s.Replace("late", fixtureRows(4, "m")); err != nil {
		t.Fatalf("commit while degraded: %v", err)
	}
	checkQuery(s, "degraded")
	in.Disarm()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after snapshot fault cleared: %v", err)
	}

	// Everything survives a clean reopen of the same directory.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer s2.Shutdown(context.Background())
	checkQuery(s2, "reopened")
}

// TestChaosQuarantineContained: a quarantined table 409s its own
// queries while neighbors keep serving bit-identical results, and
// Replace restores it.
func TestChaosQuarantineContained(t *testing.T) {
	wantRows, wantHash := refResult(t)
	s := newFixture(t, Config{})
	defer s.Shutdown(context.Background())
	s.Catalog().Quarantine("ships", fault.EIO)

	_, _, err := s.Query(context.Background(), "SELECT key, left.data, right.data FROM ships JOIN orders USING (key)")
	if !errors.Is(err, catalog.ErrQuarantined) {
		t.Fatalf("query on quarantined table = %v, want ErrQuarantined", err)
	}
	if got := errStatus(err); got != http.StatusConflict {
		t.Fatalf("errStatus(quarantined) = %d, want 409", got)
	}
	// Neighbors unaffected, results bit-identical.
	res, ps, err := s.Query(context.Background(), chaosSQL, WithTraceHash(true))
	if err != nil || !reflect.DeepEqual(res.Rows, wantRows) || ps.TraceHash != wantHash {
		t.Fatalf("neighbor query diverged: %v", err)
	}
	if h := s.Health(); h.State != wal.HealthDegraded || len(h.Quarantined) != 1 {
		t.Fatalf("health = %+v, want degraded with one quarantined table", h)
	}
	// Replace installs a fresh backing and restores full health.
	if err := s.Replace("ships", fixtureRows(16, "s")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), "SELECT key FROM ships JOIN orders USING (key)"); err != nil {
		t.Fatalf("query after Replace: %v", err)
	}
	if h := s.Health(); h.State != wal.HealthOK {
		t.Fatalf("health after Replace = %+v, want ok", h)
	}
}

// TestChaosHTTPSurface: the HTTP layer maps degradation to statuses —
// read-only writes 503 with Retry-After, /healthz reflects the state
// machine — without the handler ever crashing.
func TestChaosHTTPSurface(t *testing.T) {
	in := fault.NewInjector(nil, 7)
	s := newFixture(t, Config{
		DataDir:      t.TempDir(),
		FS:           in,
		RetryBackoff: 50 * time.Microsecond,
	})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, resp)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthy /healthz = %s", body)
	}

	in.Arm(fault.Rule{Op: fault.OpWrite, Path: "wal-", Err: fault.ENOSPC})
	// Trip the breaker through the API.
	post := func(path, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("/tables", `{"name": "h1", "rows": [{"key": 1, "data": "a"}]}`)
	drain(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write under fault = %d, want 503", resp.StatusCode)
	}
	resp = post("/tables", `{"name": "h2", "rows": [{"key": 1, "data": "a"}]}`)
	drain(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("read-only write = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if body := get("/healthz"); !strings.Contains(body, `"status": "read-only"`) {
		t.Fatalf("degraded /healthz = %s", body)
	}
	// Reads still serve over HTTP.
	resp = post("/query", `{"sql": "`+chaosSQL+`"}`)
	drain(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read under read-only = %d, want 200", resp.StatusCode)
	}

	in.Disarm()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("recovered /healthz = %s", body)
	}
}
