// Package service is the long-lived concurrent serving layer over the
// plan-IR SQL engine: one Service holds a shared catalog and a bounded
// LRU cache of prepared plans, and any number of goroutines prepare
// and execute statements against it at once.
//
// A prepared statement parses, plans and lowers exactly once; the
// cached pipeline is a tree of immutable operator values, so N
// goroutines executing the same statement share the plan and differ
// only in their per-run execution contexts (memory space, trace sink,
// stats). Results and canonical trace hashes are therefore identical
// across concurrent and sequential execution — the serving layer
// inherits the engine's determinism story wholesale.
//
// Plans are cached keyed by (SQL text, configuration fingerprint,
// catalog version): changing the worker count, store backend or
// sorting network fingerprints differently, and any catalog mutation
// bumps the version, so stale plans are never served — they simply age
// out of the LRU.
//
// The service is traffic-hardened: every execution runs under a
// context.Context threaded end to end through the operator stack (a
// cancelled or deadline-expired query aborts within one execution
// round with a typed query.ErrCanceled/ErrDeadline), admission is
// bounded by a cost-weighted semaphore with a bounded FIFO wait queue
// (ErrOverloaded on saturation, see admission.go), Shutdown drains
// in-flight queries gracefully, and Stats reports in-flight/queued
// occupancy, outcome counters and latency percentiles (stats.go).
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/fault"
	"oblivjoin/internal/query"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
	"oblivjoin/internal/wal"
)

// DefaultPlanCache is the plan-cache capacity when Config.PlanCache is
// unset.
const DefaultPlanCache = 64

// Config configures a new Service.
type Config struct {
	// Defaults are the engine options every session starts from;
	// sessions may override the instrumentation flags per call (see
	// SessionOption).
	Defaults query.Options
	// PlanCache bounds the number of cached prepared plans (LRU);
	// 0 means DefaultPlanCache.
	PlanCache int
	// SealedCatalog stores registered tables AES-sealed at rest, the
	// catalog counterpart of Defaults.Encrypted intermediate stores.
	SealedCatalog bool
	// MaxInFlight caps the summed admission cost of concurrently
	// executing queries, in cost units of CostQuantum plan-referenced
	// input rows (every query costs at least one unit; a single
	// query's cost clamps to the capacity). 0 or negative leaves
	// admission unbounded — the pre-admission behavior.
	MaxInFlight int
	// MaxQueue bounds the admission wait queue when MaxInFlight is
	// set: a query arriving with the queue full is rejected
	// immediately with ErrOverloaded. 0 means DefaultMaxQueue.
	MaxQueue int
	// QueryTimeout, when positive, applies a deadline to every
	// execution whose context does not already carry one; an
	// execution exceeding it returns query.ErrDeadline. The timeout
	// covers admission wait plus execution.
	QueryTimeout time.Duration
	// DataDir, when set, makes the catalog durable: every mutation is
	// sealed, appended to a write-ahead log in this directory and
	// fsynced before it is acknowledged, snapshots checkpoint the
	// catalog periodically, and New recovers the persisted state
	// (replaying the WAL tail over the latest snapshot) before
	// serving. Empty means memory-only, the prior behavior.
	DataDir string
	// SnapshotEvery is the number of committed mutations between
	// automatic snapshots when DataDir is set; 0 means
	// wal.DefaultSnapshotEvery, negative disables automatic snapshots.
	SnapshotEvery int
	// History bounds how many recent catalog versions stay resolvable
	// for AS OF reads; 0 means catalog.DefaultHistory, negative means
	// unlimited.
	History int
	// FS is the filesystem seam the durable layer goes through (nil
	// selects the real OS) — the fault-injection hook for chaos
	// testing. It is threaded to the WAL, snapshots and recovery reads.
	FS fault.FS
	// RetryAppend and RetryBackoff tune the WAL's transient-failure
	// retry loop (see wal.Options); zero values select the defaults.
	RetryAppend  int
	RetryBackoff time.Duration
	// ReplanFactor, when > 1, arms the adaptive replan hook: every
	// execution compares its observed comparator count against the
	// plan's modeled cost, and when the two diverge by more than this
	// factor (in either direction) the service records the observed
	// join output sizes — public quantities by construction — evicts
	// the cached plan, and lets the next Prepare re-plan with the
	// observed sizes fed into the cost model. Each cached plan replans
	// at most once per catalog version. Implies stats collection.
	ReplanFactor float64
}

// Service is a concurrent oblivious query service: a shared catalog,
// shared execution defaults, a bounded cache of prepared plans, and an
// admission-control layer bounding concurrent execution cost. All
// methods are safe for concurrent use.
type Service struct {
	cat      *catalog.Catalog
	defaults query.Options
	cipher   *crypto.Cipher
	adm      *admitter
	met      *metrics
	timeout  time.Duration
	db       *wal.DB           // non-nil: durable catalog (Config.DataDir)
	recovery *wal.RecoveryInfo // what New recovered, when durable

	replanFactor float64

	mu        sync.Mutex // guards cache, stats, feedback and replanned
	cache     *lru
	stats     CacheStats
	feedback  map[string]int  // observed join output sizes, by chain key
	replanned map[string]bool // plan keys that already replanned once
}

// New builds a Service from cfg. The returned service owns a fresh
// random cipher used for sealed catalog storage and encrypted
// execution (durable at-rest sealing uses the data directory's own
// persisted key). With Config.DataDir set, New recovers the persisted
// catalog before returning; recovery problems — a corrupt WAL record,
// a damaged snapshot — surface here as typed errors.
func New(cfg Config) (*Service, error) {
	cipher, _, err := crypto.NewRandom()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	cat := catalog.New()
	if cfg.SealedCatalog {
		cat = catalog.NewSealed(cipher)
	}
	if cfg.History != 0 {
		cat.SetHistory(cfg.History)
	}
	var db *wal.DB
	var rec *wal.RecoveryInfo
	if cfg.DataDir != "" {
		db, rec, err = wal.Open(cfg.DataDir, cat, wal.Options{
			SnapshotEvery: cfg.SnapshotEvery,
			FS:            cfg.FS,
			RetryAppend:   cfg.RetryAppend,
			RetryBackoff:  cfg.RetryBackoff,
		})
		if err != nil {
			return nil, err
		}
	}
	size := cfg.PlanCache
	if size <= 0 {
		size = DefaultPlanCache
	}
	return &Service{
		cat:          cat,
		defaults:     cfg.Defaults,
		cipher:       cipher,
		adm:          newAdmitter(int64(cfg.MaxInFlight), cfg.MaxQueue),
		met:          &metrics{},
		timeout:      cfg.QueryTimeout,
		db:           db,
		recovery:     rec,
		cache:        newLRU(size),
		replanFactor: cfg.ReplanFactor,
		feedback:     map[string]int{},
		replanned:    map[string]bool{},
	}, nil
}

// Shutdown stops admitting queries and drains the in-flight ones:
// queued queries fail with ErrShuttingDown, new arrivals are refused,
// and Shutdown returns once the last executing query releases — or
// with ctx's error when the drain outlives it (in-flight queries are
// NOT force-cancelled; callers wanting a hard stop pass deadline
// contexts to the queries themselves). Shutdown is idempotent.
// For a durable service the WAL is flushed and a final snapshot with a
// clean-shutdown marker is written in every exit path — including a
// drain that outlives ctx — so a SIGTERM never loses acknowledged
// mutations.
func (s *Service) Shutdown(ctx context.Context) error {
	s.adm.close()
	if ctx == nil {
		ctx = context.Background()
	}
	var drainErr error
	select {
	case <-s.adm.drained:
	case <-ctx.Done():
		drainErr = fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
	if s.db != nil {
		if err := s.db.Close(); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("service: shutdown flush: %w", err)
		}
	}
	return drainErr
}

// Catalog returns the service's shared catalog.
func (s *Service) Catalog() *catalog.Catalog { return s.cat }

// Register makes rows queryable under name; it returns a
// *catalog.TableExistsError when the name is taken. On a durable
// service the mutation is logged and fsynced before it is applied or
// acknowledged; the same holds for Replace, Drop, Branch and Restore.
func (s *Service) Register(name string, rows []table.Row) error {
	if s.db != nil {
		return s.db.Register(name, rows)
	}
	return s.cat.Register(name, rows)
}

// Replace registers rows under name, overwriting any previous table.
func (s *Service) Replace(name string, rows []table.Row) error {
	if s.db != nil {
		return s.db.Replace(name, rows)
	}
	return s.cat.Replace(name, rows)
}

// Drop removes the named table.
func (s *Service) Drop(name string) error {
	if s.db != nil {
		return s.db.Drop(name)
	}
	return s.cat.Drop(name)
}

// Branch makes the contents of src at catalog version asOf (0 =
// current) queryable under the new name dst. Branching shares the
// immutable backing in memory; on a durable service the branched rows
// are materialized into the WAL so replay needs no history.
func (s *Service) Branch(dst, src string, asOf uint64) error {
	if s.db != nil {
		return s.db.Branch(dst, src, asOf)
	}
	return s.cat.Branch(dst, src, asOf)
}

// Restore rewinds table name to its contents at catalog version asOf
// (which must still be retained). It can resurrect a dropped table.
func (s *Service) Restore(name string, asOf uint64) error {
	if s.db != nil {
		return s.db.RestoreTable(name, asOf)
	}
	return s.cat.RestoreTable(name, asOf)
}

// Version returns the catalog's current version counter.
func (s *Service) Version() uint64 { return s.cat.Version() }

// Checkpoint forces a durable snapshot now; it is a no-op for a
// memory-only service.
func (s *Service) Checkpoint() error {
	if s.db == nil {
		return nil
	}
	return s.db.Checkpoint()
}

// Recovery reports what New recovered from the data directory, or nil
// for a memory-only service.
func (s *Service) Recovery() *wal.RecoveryInfo { return s.recovery }

// Tables lists the registered tables' schemas, sorted by name.
func (s *Service) Tables() []catalog.Schema { return s.cat.Schemas() }

// ── sessions ─────────────────────────────────────────────────────────

// Session is the per-call layer over the service defaults: unset
// fields inherit, set fields override. Only execution knobs that keep
// the plan shape unchanged are per-session; store backend and sorting
// network stay service-wide.
type Session struct {
	// Stats overrides PlanStats collection.
	Stats *bool
	// TraceHash overrides access-pattern hashing (implies stats).
	TraceHash *bool
}

// SessionOption mutates a Session.
type SessionOption func(*Session)

// WithStats turns PlanStats collection on or off for this call.
func WithStats(on bool) SessionOption {
	return func(se *Session) { se.Stats = &on }
}

// WithTraceHash turns access-pattern hashing on or off for this call.
func WithTraceHash(on bool) SessionOption {
	return func(se *Session) { se.TraceHash = &on }
}

// effective layers opts over the service defaults.
func (s *Service) effective(opts []SessionOption) query.Options {
	var se Session
	for _, opt := range opts {
		opt(&se)
	}
	o := s.defaults
	if se.Stats != nil {
		o.CollectStats = *se.Stats
	}
	if se.TraceHash != nil {
		o.TraceHash = *se.TraceHash
	}
	if o.TraceHash {
		o.CollectStats = true
	}
	// The replan hook compares observed comparator counts against the
	// model, so an armed hook needs every execution instrumented.
	if s.replanFactor > 1 {
		o.CollectStats = true
	}
	return o
}

// fingerprint canonicalizes the execution-shaping options into the
// plan-cache key. Keying on these knobs partitions the cache per
// configuration — a fingerprint change always re-plans, never reuses.
// Instrumentation (stats, trace hashing) changes neither the plan nor
// execution semantics, so it is excluded: flipping stats on reuses the
// cached plan. So are the ignored Workers and Shards fields.
func fingerprint(o query.Options) string {
	return fmt.Sprintf("e%t|cp%t", o.Encrypted, o.CostPlan)
}

func planKey(sql string, o query.Options, version uint64) string {
	return fmt.Sprintf("%s\x1f%s\x1fv%d", sql, fingerprint(o), version)
}

// ── prepared statements ──────────────────────────────────────────────

// Stmt is a prepared statement: parsed, planned and lowered once, then
// executable any number of times from any number of goroutines. Each
// Exec snapshots the catalog and runs with a private execution
// context; the pipeline itself is shared and immutable.
type Stmt struct {
	svc      *Service
	sql      string
	opts     query.Options
	plan     query.PlanNode
	pipeline []exec.Operator
	tables   []string // catalog tables the plan references
	asOf     int64    // AS OF catalog version; -1 = current
	cached   bool
	key      string                // plan-cache key (replan invalidation target)
	model    *query.PlanCostReport // modeled cost at Prepare time
}

// SQL returns the statement's source text.
func (st *Stmt) SQL() string { return st.sql }

// Explain renders the statement's oblivious logical plan.
func (st *Stmt) Explain() string { return query.RenderPlan(st.plan) }

// Model returns the statement's modeled cost report — exact comparator
// counts, route ops and padded store footprints computed from the
// catalog's public row counts at Prepare time. Callers compare it
// against PlanStats to see modeled-vs-observed cost (the EXPLAIN and
// -stats surfaces do exactly that).
func (st *Stmt) Model() *query.PlanCostReport { return st.model }

// ExplainCost renders the statement's plan together with its modeled
// cost table.
func (st *Stmt) ExplainCost() string {
	if st.model == nil {
		return query.RenderPlan(st.plan)
	}
	return query.RenderPlan(st.plan) + "\n\n" + query.RenderPlanCost(st.model)
}

// cost estimates a statement's admission weight from the (public) row
// counts of the catalog tables its plan references at the execution's
// pinned version: one unit per CostQuantum input rows, at least one.
// Tables dropped since Prepare contribute nothing — the execution will
// fail fast on the snapshot anyway.
func (s *Service) cost(v *catalog.View, tables []string) int64 {
	var rows int64
	for _, name := range tables {
		if sch, err := v.Schema(name); err == nil {
			rows += int64(sch.Rows)
		}
	}
	w := (rows + CostQuantum - 1) / CostQuantum
	return s.adm.clampWeight(w)
}

// viewAt resolves an AS OF version (-1 = pin the current version) to a
// pinned catalog view. An unretained version yields a typed
// *catalog.VersionError.
func (s *Service) viewAt(asOf int64) (*catalog.View, error) {
	if asOf < 0 {
		return s.cat.Pin(), nil
	}
	return s.cat.At(uint64(asOf))
}

// Exec runs the prepared pipeline against a snapshot of the catalog
// tables the plan references. It returns the result and, when the
// session collects, the PlanStats report with CacheHit set when the
// plan came from the cache. Exec is safe to call concurrently on the
// same Stmt. A referenced table dropped since Prepare surfaces as a
// *catalog.UnknownTableError.
//
// Execution is admission-controlled: the run first acquires its
// cost-weighted share of the service's MaxInFlight semaphore (waiting
// its turn in a bounded FIFO queue, failing fast with ErrOverloaded
// when the queue is full) and is governed by ctx — cancel it, or let
// its deadline (or the service's QueryTimeout default) expire, and the
// query aborts within one execution round with an error wrapping
// query.ErrCanceled or query.ErrDeadline. An aborted run leaves the
// catalog, the plan cache and every sealed store untouched: concurrent
// queries are unaffected and completed queries' trace hashes stay
// bit-identical whether or not neighbors were cancelled. A nil ctx
// means context.Background().
func (st *Stmt) Exec(ctx context.Context) (*query.Result, *query.PlanStats, error) {
	s := st.svc
	if ctx == nil {
		ctx = context.Background()
	}
	if s.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
	}
	// The view is pinned before admission: from here on this execution
	// reads exactly one catalog version, no matter how long it queues
	// or runs and no matter what writers do meanwhile.
	view, err := s.viewAt(st.asOf)
	if err != nil {
		return nil, nil, err
	}
	weight := s.cost(view, st.tables)
	start := time.Now()
	if err := s.adm.acquire(ctx, weight); err != nil {
		s.met.reject(isCancellation(err))
		return nil, nil, err
	}
	defer s.adm.release(weight)
	s.met.begin()

	res, ps, err := st.run(ctx, view)
	d := time.Since(start)
	switch {
	case err == nil:
		s.met.end(d, outcomeCompleted)
	case isCancellation(err):
		s.met.end(d, outcomeCanceled)
	default:
		s.met.end(d, outcomeFailed)
	}
	if err == nil && ps != nil {
		s.maybeReplan(st, view, ps)
	}
	return res, ps, err
}

// maybeReplan is the adaptive replan hook: when an execution's
// observed comparator count diverges from the plan's modeled cost by
// more than the configured factor, the service records the observed
// join output sizes — public quantities, revealed by design — evicts
// the cached plan, and marks the key so a given plan replans at most
// once. The next Prepare re-plans with the observed sizes fed into the
// cost model, letting the greedy ordering correct itself.
func (s *Service) maybeReplan(st *Stmt, view *catalog.View, ps *query.PlanStats) {
	f := s.replanFactor
	if f <= 1 || st.model == nil || st.model.Comparators == 0 || ps.Comparators == 0 {
		return
	}
	obs, mod := float64(ps.Comparators), float64(st.model.Comparators)
	if obs <= mod*f && mod <= obs*f {
		return
	}
	from, joins := query.JoinChain(st.plan)
	var sizes []int
	for _, op := range ps.Operators {
		if strings.HasPrefix(op.Op, "oblivious-join(") {
			sizes = append(sizes, op.Rows)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replanned[st.key] {
		return
	}
	s.replanned[st.key] = true
	left := []string{from}
	for i, t := range joins {
		if i < len(sizes) {
			s.feedback[feedKey(view.Version(), left, t)] = sizes[i]
		}
		left = append(left, t)
	}
	s.cache.remove(st.key)
	s.stats.Replans++
}

// feedKey scopes an observed join output size to a catalog version and
// an execution-order chain prefix.
func feedKey(version uint64, left []string, right string) string {
	return fmt.Sprintf("v%d\x1f%s\x1f→%s", version, strings.Join(left, "\x1f"), right)
}

// svcCard adapts a pinned catalog view (public schema row counts) plus
// a feedback snapshot to the planner's Card interface.
type svcCard struct {
	view *catalog.View
	feed map[string]int
}

func (c svcCard) Rows(t string) (int, bool) {
	sch, err := c.view.Schema(t)
	if err != nil {
		return 0, false
	}
	return sch.Rows, true
}

func (c svcCard) JoinRows(left []string, right string) (int, bool) {
	m, ok := c.feed[feedKey(c.view.Version(), left, right)]
	return m, ok
}

// cardFor builds the planner's cardinality source for a view,
// snapshotting the service's feedback map under the lock so planning
// can read it without racing the replan hook.
func (s *Service) cardFor(view *catalog.View) svcCard {
	s.mu.Lock()
	defer s.mu.Unlock()
	feed := make(map[string]int, len(s.feedback))
	for k, v := range s.feedback {
		feed[k] = v
	}
	return svcCard{view: view, feed: feed}
}

// isCancellation reports whether err is a context-driven abort (either
// typed sentinel).
func isCancellation(err error) bool {
	return errors.Is(err, query.ErrCanceled) || errors.Is(err, query.ErrDeadline)
}

// run snapshots the referenced tables from the pinned view and
// executes the pipeline.
func (st *Stmt) run(ctx context.Context, view *catalog.View) (*query.Result, *query.PlanStats, error) {
	tables, err := view.SnapshotTables(st.tables)
	if err != nil {
		return nil, nil, err
	}
	res, ps, err := query.Run(ctx, st.opts, st.svc.cipher, tables, st.pipeline)
	if err != nil {
		return nil, nil, err
	}
	if ps != nil {
		ps.CacheHit = st.cached
	}
	return res, ps, nil
}

// Prepare parses, plans and lowers sql under the session's effective
// options, consulting the plan cache first. Preparing against an empty
// catalog returns catalog.ErrNoTables; unknown tables surface as
// *catalog.UnknownTableError.
func (s *Service) Prepare(ctx context.Context, sql string, opts ...SessionOption) (*Stmt, error) {
	if s.adm.isClosed() {
		return nil, fmt.Errorf("service: %w", ErrShuttingDown)
	}
	if ctx != nil {
		if cause := ctx.Err(); cause != nil {
			return nil, mapCtxErr(cause)
		}
	}
	eff := s.effective(opts)
	key := planKey(sql, eff, s.cat.Version())

	s.mu.Lock()
	if ent, ok := s.cache.get(key); ok {
		s.stats.Hits++
		s.mu.Unlock()
		return &Stmt{svc: s, sql: sql, opts: eff, key: key,
			plan: ent.plan, pipeline: ent.pipeline, tables: ent.tables, asOf: ent.asOf,
			model: ent.model, cached: true}, nil
	}
	s.mu.Unlock()

	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	// AS OF resolves table existence (and later, snapshots) at the
	// pinned historical version; the statement carries the version so
	// every Exec of the cached plan reads the same point in time. The
	// AS OF text is part of the SQL cache key, so time-travel plans
	// never collide with current-version plans.
	view, err := s.viewAt(q.AsOf)
	if err != nil {
		return nil, err
	}
	// Emptiness is judged at the pinned version, not the current one:
	// AS OF must reach tables that have since all been dropped.
	if view.Len() == 0 {
		return nil, catalog.ErrNoTables
	}
	card := s.cardFor(view)
	var plan query.PlanNode
	if eff.CostPlan {
		plan, err = query.BuildPlanCfg(q, view.Has, query.PlanConfig{
			CostPlan: true, Card: card, Opts: eff,
		})
	} else {
		plan, err = query.BuildPlan(q, view.Has)
	}
	if err != nil {
		return nil, err
	}
	pipeline, err := query.LowerPlan(plan)
	if err != nil {
		return nil, err
	}
	tables := query.PlanTables(plan)
	// The modeled cost is computed for every plan (not just cost-planned
	// ones): it reads only public cardinalities, and it is what EXPLAIN
	// surfaces as modeled-vs-observed and what the replan hook compares
	// executions against.
	model := query.ComputePlanCost(plan, card, eff)

	// Counted here, after planning succeeded: failed prepares cache
	// nothing, so they are neither hits nor misses.
	s.mu.Lock()
	s.stats.Misses++
	s.stats.Evictions += uint64(s.cache.put(key, &planEntry{
		plan: plan, pipeline: pipeline, tables: tables, asOf: q.AsOf, model: model}))
	s.mu.Unlock()
	return &Stmt{svc: s, sql: sql, opts: eff, key: key,
		plan: plan, pipeline: pipeline, tables: tables, asOf: q.AsOf, model: model}, nil
}

// Query prepares (or reuses a cached plan for) sql and executes it
// once under ctx: the one-shot form of Prepare + Exec.
func (s *Service) Query(ctx context.Context, sql string, opts ...SessionOption) (*query.Result, *query.PlanStats, error) {
	st, err := s.Prepare(ctx, sql, opts...)
	if err != nil {
		return nil, nil, err
	}
	return st.Exec(ctx)
}

// Explain returns the oblivious plan sql would execute, without
// touching any data.
func (s *Service) Explain(sql string) (string, error) {
	st, err := s.Prepare(context.Background(), sql)
	if err != nil {
		return "", err
	}
	return st.Explain(), nil
}

// CacheStats reports the plan cache's cumulative hit/miss/eviction
// counters and its current occupancy.
func (s *Service) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Size = s.cache.len()
	st.Cap = s.cache.cap
	return st
}

// CacheStats is the plan cache report.
type CacheStats struct {
	// Hits counts Prepares answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts Prepares that planned from scratch.
	Misses uint64 `json:"misses"`
	// Evictions counts plans dropped at the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Replans counts plans the adaptive hook invalidated after
	// observed cost diverged from the model beyond the configured
	// factor (Config.ReplanFactor).
	Replans uint64 `json:"replans"`
	// Size is the number of currently cached plans.
	Size int `json:"size"`
	// Cap is the cache capacity.
	Cap int `json:"cap"`
}
