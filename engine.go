package oblivjoin

import (
	"context"
	"net/http"
	"sync"
	"time"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/wal"
)

// Engine is an oblivious SQL engine over registered tables: a small
// SELECT dialect whose every plan stage (filter, join chains, semijoin,
// group by, distinct, sort) is data-oblivious. See the package
// documentation of internal/query for the grammar.
//
//	eng := oblivjoin.NewEngine(oblivjoin.WithTraceHash())
//	eng.Register("users", users)
//	eng.Register("orders", orders)
//	res, err := eng.Query(
//	    "SELECT key, left.data, right.data FROM users JOIN orders USING (key)")
//
// An Engine is a thin veneer over the concurrent query service
// (internal/service): it holds a shared catalog and a bounded LRU
// cache of prepared plans, and it is safe for concurrent use — any
// number of goroutines may Register, Prepare and Query at once.
// Statements prepared once execute many times concurrently with
// results and trace hashes identical to sequential execution.
//
// Queries execute as a plan of physical operators threading one shared
// oblivious configuration, so the engine options below apply to every
// stage uniformly: results, plans and trace hashes are identical
// between plain and encrypted stores.
type Engine struct {
	svc *service.Service

	mu   sync.Mutex
	last *PlanStats
}

// EngineOption configures a new Engine.
type EngineOption func(*service.Config)

// WithEncryptedStore keeps every intermediate table entry AES-sealed in
// public memory under a fresh per-engine key: the cloud-database
// deployment of the paper, where the server stores only ciphertexts and
// observes only the (oblivious) access sequence. Entries are sealed in
// blocks of 16 per ciphertext.
func WithEncryptedStore() EngineOption {
	return func(c *service.Config) { c.Defaults.Encrypted = true }
}

// WithSealedCatalog additionally stores registered tables AES-sealed at
// rest, under the same per-engine key: snapshots taken for query
// execution authenticate and decrypt a fresh copy.
func WithSealedCatalog() EngineOption {
	return func(c *service.Config) { c.SealedCatalog = true }
}

// WithStats records a PlanStats report for every query, retrievable
// via LastStats.
func WithStats() EngineOption {
	return func(c *service.Config) { c.Defaults.CollectStats = true }
}

// WithTraceHash chains every public-memory access of a query into a
// SHA-256 access-pattern digest (the §6.1 construction), reported in
// PlanStats.TraceHash — the same verification handle Join offers.
// Implies WithStats.
func WithTraceHash() EngineOption {
	return func(c *service.Config) { c.Defaults.TraceHash = true; c.Defaults.CollectStats = true }
}

// WithPlanCache bounds the engine's prepared-plan LRU cache to n
// entries (default service.DefaultPlanCache).
func WithPlanCache(n int) EngineOption {
	return func(c *service.Config) { c.PlanCache = n }
}

// WithMaxInFlight bounds the summed cost of concurrently executing
// queries to n admission units (one unit ≈ 4096 plan-referenced input
// rows; every query costs at least one unit, and a single query's
// cost clamps to n). Queries beyond the bound wait in a FIFO queue —
// see WithQueueDepth — instead of admitting unbounded goroutines.
// Unset or ≤ 0 leaves admission unbounded.
func WithMaxInFlight(n int) EngineOption {
	return func(c *service.Config) { c.MaxInFlight = n }
}

// WithQueueDepth bounds the admission wait queue used when
// WithMaxInFlight is set: a query arriving with the queue full fails
// immediately with ErrOverloaded (HTTP 503). Default
// service.DefaultMaxQueue.
func WithQueueDepth(n int) EngineOption {
	return func(c *service.Config) { c.MaxQueue = n }
}

// WithQueryTimeout applies d as the deadline of every query execution
// whose context does not already carry one, covering admission wait
// plus execution; an execution exceeding it aborts within one
// execution round with ErrDeadline (HTTP 503).
func WithQueryTimeout(d time.Duration) EngineOption {
	return func(c *service.Config) { c.QueryTimeout = d }
}

// WithDataDir makes the catalog durable under dir: every Register,
// Replace, Drop, Branch and Restore is sealed, appended to a
// write-ahead log and fsynced before it returns, the catalog is
// checkpointed to sealed snapshot files periodically (see
// WithSnapshotEvery) and on Shutdown, and engine construction recovers
// the persisted state — replaying the WAL tail over the latest
// snapshot, discarding a torn final record from a crashed append. All
// secret bytes on disk are ciphertext under a per-directory key file;
// construction can now fail on real corruption, so durable engines
// should be built with OpenEngine.
func WithDataDir(dir string) EngineOption {
	return func(c *service.Config) { c.DataDir = dir }
}

// WithSnapshotEvery checkpoints the durable catalog every n committed
// mutations (default wal.DefaultSnapshotEvery = 256; negative disables
// automatic checkpoints — Shutdown and Checkpoint still write them).
// Only meaningful with WithDataDir.
func WithSnapshotEvery(n int) EngineOption {
	return func(c *service.Config) { c.SnapshotEvery = n }
}

// WithHistory bounds how many recent catalog versions stay resolvable
// for AS OF reads and Branch/Restore (default 64; negative keeps
// unlimited history in memory).
func WithHistory(n int) EngineOption {
	return func(c *service.Config) { c.History = n }
}

// NewEngine returns an empty engine configured by opts (sequential,
// plaintext and uninstrumented by default). It panics when engine
// construction fails — for a memory-only engine that is only the
// platform entropy source failing; a durable engine (WithDataDir) can
// also fail on recovery, so prefer OpenEngine there.
func NewEngine(opts ...EngineOption) *Engine {
	eng, err := OpenEngine(opts...)
	if err != nil {
		panic("oblivjoin: " + err.Error())
	}
	return eng
}

// OpenEngine is NewEngine returning construction errors instead of
// panicking: with WithDataDir the persisted catalog is recovered here,
// and a damaged store — a WAL record failing its checksum or
// authentication, a corrupt snapshot — surfaces as a typed
// *RecoveryError rather than silently serving partial data.
func OpenEngine(opts ...EngineOption) (*Engine, error) {
	var cfg service.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{svc: svc}, nil
}

// Register makes a table queryable under name (folded to lower case;
// letters, digits and underscores only). Registering a name twice
// returns a *TableExistsError — overwriting is the explicit Replace
// operation, never an accident. A nil table is an ErrNilTable.
func (e *Engine) Register(name string, t *Table) error {
	if t == nil {
		return ErrNilTable
	}
	return e.svc.Register(name, t.rows)
}

// Replace makes a table queryable under name, overwriting any table
// previously registered under it.
func (e *Engine) Replace(name string, t *Table) error {
	if t == nil {
		return ErrNilTable
	}
	return e.svc.Replace(name, t.rows)
}

// Drop removes the named table; it returns an *UnknownTableError when
// no such table is registered.
func (e *Engine) Drop(name string) error { return e.svc.Drop(name) }

// Branch makes the contents of table src — at catalog version asOf, or
// the current version when asOf is 0 — queryable under the new name
// dst. In memory a branch aliases the immutable backing at zero copy
// cost; on a durable engine the branched rows are also written to the
// WAL so recovery needs no history. dst taken is a *TableExistsError;
// an unretained asOf is a *catalog.VersionError.
func (e *Engine) Branch(dst, src string, asOf uint64) error {
	return e.svc.Branch(dst, src, asOf)
}

// Restore rewinds table name to its contents at catalog version asOf,
// which must still be inside the retained history window (WithHistory).
// It can resurrect a dropped table.
func (e *Engine) Restore(name string, asOf uint64) error {
	return e.svc.Restore(name, asOf)
}

// CatalogVersion returns the catalog's current version counter: it
// increases by one on every Register, Replace, Drop, Branch and
// Restore, and any retained version can be read back with an
// `AS OF <version>` query, Branch or Restore.
func (e *Engine) CatalogVersion() uint64 { return e.svc.Version() }

// Checkpoint forces a durable snapshot of the catalog now. It is a
// no-op (nil) for a memory-only engine.
func (e *Engine) Checkpoint() error { return e.svc.Checkpoint() }

// RecoveryInfo reports what a durable engine recovered at
// construction: the snapshot version loaded, WAL records replayed over
// it, the resulting catalog version and table count, whether the
// previous process shut down cleanly, and a discarded torn tail if the
// previous process crashed mid-append.
type RecoveryInfo = wal.RecoveryInfo

// RecoveryError is the typed error for damage found while recovering a
// durable engine: which file, at what offset and record index, and the
// cause — wal.ErrTruncated, wal.ErrChecksum, wal.ErrFormat or an
// authentication failure wrapping crypto's ErrAuth.
type RecoveryError = wal.TailError

// Recovery returns what this engine recovered from its data directory
// at construction, or nil for a memory-only engine.
func (e *Engine) Recovery() *RecoveryInfo { return e.svc.Recovery() }

// Tables lists the registered tables' schemas, sorted by name.
func (e *Engine) Tables() []TableInfo { return e.svc.Tables() }

// QueryResult is a query result: column names and stringified rows.
type QueryResult struct {
	Columns []string
	Rows    [][]string
}

// Query parses, plans and executes a SELECT statement obliviously,
// reusing a cached plan when one exists for this SQL under the
// engine's configuration. Querying before any table is registered
// returns ErrNoTables. Query is QueryContext with context.Background().
func (e *Engine) Query(sql string) (*QueryResult, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext is Query governed by ctx, threaded end to end through
// the oblivious operator stack: cancel the context — or let its
// deadline (or the engine's WithQueryTimeout default) expire — and the
// query aborts within one execution round of the innermost sort,
// returning an error wrapping ErrCanceled or ErrDeadline. An aborted
// query abandons only its private scratch stores; the catalog, the
// plan cache and concurrent queries (including their trace hashes)
// are untouched. The context also covers admission wait when the
// engine bounds in-flight queries (WithMaxInFlight).
func (e *Engine) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	res, ps, err := e.svc.Query(ctx, sql)
	e.setLast(ps, err)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Columns: res.Columns, Rows: res.Rows}, nil
}

// Explain returns the oblivious plan Query would run — e.g.
// "scan(users) → semijoin(vips) → filter[branch-free] → project" —
// rendered from the logical plan tree without executing anything. The
// plan depends only on the query shape and the registered catalog,
// never on table contents.
func (e *Engine) Explain(sql string) (string, error) {
	return e.svc.Explain(sql)
}

// ExplainCost is Explain plus the modeled cost table: per-stage exact
// comparator counts, route ops, modeled row counts and padded store
// footprints, all computed from public cardinalities without executing
// anything. Compare against PlanStats for modeled-vs-observed cost.
func (e *Engine) ExplainCost(sql string) (string, error) {
	st, err := e.svc.Prepare(context.Background(), sql)
	if err != nil {
		return "", err
	}
	return st.ExplainCost(), nil
}

// PlanCostReport is a plan's modeled cost: per-stage and total
// comparator counts, route ops, modeled cardinalities and padded store
// footprints, computed from public metadata only. Comparator totals
// are exact — equal to the executed counts — whenever no stage's size
// rests on an estimate.
type PlanCostReport = query.PlanCostReport

// Stmt is a prepared statement: parsed, planned and lowered once, then
// executable any number of times — including concurrently from many
// goroutines, each execution with its own isolated context. Results
// and canonical trace hashes are identical to sequential execution.
type Stmt struct {
	eng   *Engine
	inner *service.Stmt
}

// Model returns the statement's modeled cost report.
func (s *Stmt) Model() *PlanCostReport { return s.inner.Model() }

// Prepare parses and plans sql once against the current catalog,
// consulting the engine's plan cache. The returned statement is safe
// for concurrent Exec.
func (e *Engine) Prepare(sql string) (*Stmt, error) {
	st, err := e.svc.Prepare(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: e, inner: st}, nil
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.inner.SQL() }

// Explain renders the statement's oblivious plan.
func (s *Stmt) Explain() string { return s.inner.Explain() }

// Exec runs the prepared statement against the current catalog. When
// the engine collects stats, the run's report becomes LastStats.
func (s *Stmt) Exec() (*QueryResult, error) {
	res, _, err := s.ExecStats()
	return res, err
}

// ExecContext is Exec governed by ctx; see QueryContext for the
// cancellation and admission semantics.
func (s *Stmt) ExecContext(ctx context.Context) (*QueryResult, error) {
	res, _, err := s.execStats(ctx)
	return res, err
}

// ExecStats is Exec returning the run's PlanStats report alongside the
// result (nil when the engine does not collect stats). Concurrent
// executions each receive their own report; LastStats only keeps the
// latest to finish.
func (s *Stmt) ExecStats() (*QueryResult, *PlanStats, error) {
	return s.execStats(context.Background())
}

func (s *Stmt) execStats(ctx context.Context) (*QueryResult, *PlanStats, error) {
	res, ps, err := s.inner.Exec(ctx)
	s.eng.setLast(ps, err)
	if err != nil {
		return nil, nil, err
	}
	return &QueryResult{Columns: res.Columns, Rows: res.Rows}, ps, nil
}

// PlanStats is the per-query execution report: one entry per plan
// operator (label, wall time, output rows) plus whole-run
// instrumentation — comparator counts, routing steps, trace events,
// the optional SHA-256 access-pattern hash, and whether the plan came
// from the prepared-plan cache. Collected when the engine was built
// with WithStats or WithTraceHash. String renders it as an aligned
// table.
type PlanStats = query.PlanStats

// OperatorStat is one plan stage's report: the stage label (matching
// the EXPLAIN stage), its wall time and its (public) output
// cardinality.
type OperatorStat = query.OperatorStat

// LastStats returns the report of the most recent successful Query or
// statement execution on this engine, or nil when stats collection is
// off, no query ran yet, or the last query failed. With concurrent
// executions in flight, "most recent" is the last one to finish.
func (e *Engine) LastStats() *PlanStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

func (e *Engine) setLast(ps *PlanStats, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.last = nil
		return
	}
	if ps != nil {
		e.last = ps
	}
}

// CacheStats reports the engine's plan-cache counters: cumulative
// hits, misses and LRU evictions, plus current occupancy.
type CacheStats = service.CacheStats

// CacheStats returns the engine's plan-cache report.
func (e *Engine) CacheStats() CacheStats { return e.svc.CacheStats() }

// ServiceStats is the engine's serving report: admission occupancy
// (in-flight and queued queries, cost units in use), cumulative
// outcome counters (completed, failed, rejected, cancelled), latency
// percentiles over recent completed queries, and the goroutine
// high-water mark. Served over HTTP as GET /stats.
type ServiceStats = service.ServiceStats

// Stats returns the engine's serving report.
func (e *Engine) Stats() ServiceStats { return e.svc.Stats() }

// Health is the engine's aggregate health report: the durable layer's
// state machine (ok, degraded after a failed snapshot, read-only after
// persistent write failure) joined with the catalog's quarantine set.
type Health = service.Health

// Health returns the engine's aggregate health. Degradation narrows
// the write surface, never the read surface: a degraded or read-only
// engine still serves queries against healthy tables, and a successful
// Checkpoint restores full service once the underlying fault clears.
func (e *Engine) Health() Health { return e.svc.Health() }

// Shutdown stops admitting queries and drains the in-flight ones:
// queued and newly arriving queries fail with ErrShuttingDown, and
// Shutdown returns once the last executing query finishes — or with
// ctx's error if the drain outlives it. In-flight queries are not
// force-cancelled; give them deadline contexts (WithQueryTimeout or
// per-call) when a hard stop matters. On a durable engine Shutdown
// also flushes: the WAL is fsynced and a final snapshot with a
// clean-shutdown marker is written in every exit path, even when the
// drain outlives ctx. Idempotent.
func (e *Engine) Shutdown(ctx context.Context) error { return e.svc.Shutdown(ctx) }

// TableInfo describes one registered table: its normalized name and
// public row count.
type TableInfo = catalog.Schema

// Handler returns the engine's HTTP JSON surface — the traffic-facing
// endpoint cmd/oservd serves:
//
//	POST /query    {"sql": "...", "stats": true}
//	GET  /tables   registered schemas
//	POST /tables   {"name": "t", "rows": [{"key": 1, "data": "a"}]}
//	GET  /healthz  liveness, catalog size, plan-cache counters
//
// The handler shares this engine's catalog and plan cache and is safe
// to serve from any number of connections.
func (e *Engine) Handler() http.Handler { return service.NewHandler(e.svc) }
