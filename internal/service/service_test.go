package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/query"
	"oblivjoin/internal/table"
)

func fixtureRows(n int, tag string) []table.Row {
	out := make([]table.Row, n)
	for i := range out {
		out[i] = table.Row{J: uint64(i % (n/2 + 1)), D: table.MustData(fmt.Sprintf("%s%d", tag, i))}
	}
	return out
}

func newFixture(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tag := range map[string]string{"users": "u", "orders": "o", "ships": "s"} {
		if err := s.Register(name, fixtureRows(16, tag)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestQueryMatchesEngine(t *testing.T) {
	const sql = "SELECT key, left.data, right.data FROM users JOIN orders USING (key)"
	s := newFixture(t, Config{})
	got, _, err := s.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	eng := query.NewEngine()
	for name, tag := range map[string]string{"users": "u", "orders": "o", "ships": "s"} {
		if err := eng.Register(name, fixtureRows(16, tag)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service result diverged from engine:\n got %v\nwant %v", got, want)
	}
}

func TestPrepareEmptyCatalog(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(context.Background(), "SELECT key FROM users"); !errors.Is(err, catalog.ErrNoTables) {
		t.Fatalf("Prepare on empty catalog = %v, want ErrNoTables", err)
	}
	if _, _, err := s.Query(context.Background(), "SELECT key FROM users"); !errors.Is(err, catalog.ErrNoTables) {
		t.Fatalf("Query on empty catalog = %v, want ErrNoTables", err)
	}
}

func TestPrepareUnknownTableTyped(t *testing.T) {
	s := newFixture(t, Config{})
	_, err := s.Prepare(context.Background(), "SELECT key FROM nope")
	var unk *catalog.UnknownTableError
	if !errors.As(err, &unk) || unk.Name != "nope" {
		t.Fatalf("Prepare(unknown) = %v, want *UnknownTableError{nope}", err)
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	const sql = "SELECT key, COUNT(*) FROM users GROUP BY key"
	s := newFixture(t, Config{})
	base := s.CacheStats()
	if base.Hits != 0 || base.Misses != 0 {
		t.Fatalf("fresh service cache stats = %+v", base)
	}

	st1, err := s.Prepare(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Prepare(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.CacheStats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("after two Prepares: %+v, want 1 miss + 1 hit", cs)
	}
	if st1.cached || !st2.cached {
		t.Fatalf("cached flags = %t, %t; want false, true", st1.cached, st2.cached)
	}

	// CacheHit surfaces in PlanStats when collecting.
	_, ps, err := st2.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ps != nil {
		t.Fatal("stats collected without WithStats")
	}
	_, ps, err = s.Query(context.Background(), sql, WithStats(true))
	if err != nil {
		t.Fatal(err)
	}
	if ps == nil || !ps.CacheHit {
		t.Fatalf("PlanStats.CacheHit = %+v, want hit", ps)
	}
}

func TestPlanCacheFingerprintBypass(t *testing.T) {
	const sql = "SELECT key FROM users WHERE key < 5"
	s := newFixture(t, Config{})
	if _, err := s.Prepare(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	// Same SQL under a different execution configuration: a different
	// cache key, so the cache is bypassed.
	if planKey(sql, query.Options{}, 1) == planKey(sql, query.Options{Encrypted: true}, 1) {
		t.Fatal("store mode does not change the plan-cache key")
	}
	// Instrumentation flags do NOT fingerprint: stats-on reuses the plan.
	if _, err := s.Prepare(context.Background(), sql, WithStats(true)); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("stats flag bypassed the cache: %+v", cs)
	}
}

func TestPlanCacheCatalogVersionBypass(t *testing.T) {
	const sql = "SELECT key FROM users"
	s := newFixture(t, Config{})
	if _, err := s.Prepare(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("extra", fixtureRows(4, "e")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	cs := s.CacheStats()
	if cs.Misses != 2 {
		t.Fatalf("catalog change did not bypass the cache: %+v", cs)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	s, err := New(Config{PlanCache: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("users", fixtureRows(8, "u")); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT key FROM users",
		"SELECT key FROM users WHERE key < 3",
		"SELECT DISTINCT key, data FROM users",
	}
	for _, q := range queries {
		if _, err := s.Prepare(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.CacheStats()
	if cs.Evictions != 1 || cs.Size != 2 || cs.Cap != 2 {
		t.Fatalf("after overfilling a 2-entry cache: %+v", cs)
	}
	// The oldest plan was evicted: preparing it again misses.
	if _, err := s.Prepare(context.Background(), queries[0]); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Misses != 4 || cs.Hits != 0 {
		t.Fatalf("evicted plan served from cache: %+v", cs)
	}
	// The most recent one is still cached.
	if _, err := s.Prepare(context.Background(), queries[2]); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Hits != 1 {
		t.Fatalf("recent plan not served from cache: %+v", cs)
	}
}

// concurrentStmtCheck is the acceptance criterion: one prepared
// statement executed from nGoroutines goroutines must return results
// and canonical trace hashes identical to a sequential reference run.
func concurrentStmtCheck(t *testing.T, cfg Config, sql string) {
	t.Helper()
	s := newFixture(t, cfg)
	st, err := s.Prepare(context.Background(), sql, WithTraceHash(true))
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference.
	refRes, refPS, err := st.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if refPS == nil || refPS.TraceHash == "" {
		t.Fatal("no reference trace hash")
	}

	const nGoroutines = 12
	var wg sync.WaitGroup
	results := make([]*query.Result, nGoroutines)
	hashes := make([]string, nGoroutines)
	errs := make([]error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, ps, err := st.Exec(context.Background())
			if err != nil {
				errs[g] = err
				return
			}
			results[g] = res
			hashes[g] = ps.TraceHash
		}(g)
	}
	wg.Wait()
	for g := 0; g < nGoroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(results[g], refRes) {
			t.Fatalf("goroutine %d result diverged from sequential run", g)
		}
		if hashes[g] != refPS.TraceHash {
			t.Fatalf("goroutine %d trace hash %s != sequential %s", g, hashes[g], refPS.TraceHash)
		}
	}
}

func TestConcurrentExecDeterministic(t *testing.T) {
	const sql = "SELECT key, left.data, right.data FROM users JOIN orders USING (key) JOIN ships USING (key)"
	t.Run("plain", func(t *testing.T) { concurrentStmtCheck(t, Config{}, sql) })
	t.Run("encrypted", func(t *testing.T) {
		concurrentStmtCheck(t, Config{Defaults: query.Options{Encrypted: true}}, sql)
	})
	t.Run("sealed-catalog", func(t *testing.T) {
		concurrentStmtCheck(t, Config{SealedCatalog: true}, sql)
	})
}

// TestConcurrentMixedTraffic drives prepares, execs and registrations
// from many goroutines at once; run under -race in CI. Correctness of
// individual results is covered elsewhere — this test asserts nothing
// panics, races or errors unexpectedly while the catalog shifts under
// running queries.
func TestConcurrentMixedTraffic(t *testing.T) {
	s := newFixture(t, Config{PlanCache: 4})
	queries := []string{
		"SELECT key FROM users",
		"SELECT key, COUNT(*) FROM users JOIN orders USING (key) GROUP BY key",
		"SELECT DISTINCT key, data FROM ships",
		"SELECT key, data FROM orders WHERE key < 4 ORDER BY key",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := s.Query(context.Background(), queries[(g+i)%len(queries)], WithStats(i%2 == 0)); err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := s.Replace(fmt.Sprintf("scratch%d", g), fixtureRows(4, "x")); err != nil {
					t.Errorf("replace: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStmtSnapshotsOnlyReferencedTables: executions snapshot the
// plan's table set, so a statement keeps working while unrelated
// tables churn, and a dropped referenced table surfaces as a typed
// error rather than a stale result.
func TestStmtSnapshotsOnlyReferencedTables(t *testing.T) {
	s := newFixture(t, Config{})
	st, err := s.Prepare(context.Background(), "SELECT key, left.data, right.data FROM users JOIN orders USING (key)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.tables, []string{"users", "orders"}) {
		t.Fatalf("Stmt.tables = %v", st.tables)
	}
	// Dropping an unreferenced table does not disturb the statement.
	if err := s.Drop("ships"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Exec(context.Background()); err != nil {
		t.Fatalf("Exec after unrelated drop: %v", err)
	}
	// Dropping a referenced table is a typed error at Exec.
	if err := s.Drop("orders"); err != nil {
		t.Fatal(err)
	}
	var unk *catalog.UnknownTableError
	if _, _, err := st.Exec(context.Background()); !errors.As(err, &unk) || unk.Name != "orders" {
		t.Fatalf("Exec after drop = %v, want *UnknownTableError{orders}", err)
	}
}

func TestExplain(t *testing.T) {
	s := newFixture(t, Config{})
	plan, err := s.Explain("SELECT key FROM users WHERE key = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := "scan(users) → filter[branch-free] → project"
	if plan != want {
		t.Fatalf("Explain = %q, want %q", plan, want)
	}
}
