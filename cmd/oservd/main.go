// Command oservd serves the oblivious SQL engine over HTTP: a long-
// lived query service with a shared catalog and a prepared-plan cache,
// the traffic-facing deployment of the library.
//
// Usage:
//
//	oservd [flags]
//
//	-addr string        listen address (default ":8343")
//	-encrypted          AES-seal every intermediate table entry
//	-sealed-catalog     AES-seal registered tables at rest
//	-stats              collect PlanStats for every query by default
//	-cache int          prepared-plan LRU capacity (default 64)
//	-max-inflight int   admission capacity in cost units of 4096 input
//	                    rows (0 = unbounded); excess queries queue
//	-queue int          admission wait-queue bound; a query arriving
//	                    with the queue full gets 503 (default 64)
//	-query-timeout dur  per-query deadline covering queue wait +
//	                    execution (e.g. 30s; 0 = none)
//	-csv name=path      register a CSV file as a table (repeatable; key in
//	                    column 0, data in column 1)
//	-header             CSV files start with a header row
//	-demo int           register demo tables t1, t2, t3 with this many rows
//	-data-dir path      durable catalog: sealed WAL + snapshots in this
//	                    directory, recovered on boot (empty = memory-only)
//	-snapshot-every n   commits between automatic snapshots (0 = 256)
//	-history n          retained catalog versions for AS OF (0 = 64)
//
// Endpoints (all JSON):
//
//	POST /query    {"sql": "...", "stats": true,
//	                "trace_hash": true, "explain": false}
//	GET  /tables   registered schemas
//	POST /tables   {"name": "t", "rows": [{"key": 1, "data": "a"}],
//	                "replace": false}
//	GET  /healthz  liveness, catalog size, plan-cache counters
//	GET  /stats    admission occupancy, outcome counters, latency
//	               percentiles (p50/p95/p99), goroutine high-water mark
//
// A query cancelled by its client (closed connection) or by
// -query-timeout aborts within one execution round; overload returns
// 503 with Retry-After. SIGINT/SIGTERM drain gracefully: the listener
// closes, in-flight queries finish, and with -data-dir the WAL is
// fsynced and a final snapshot written before the process exits.
//
// Quickstart:
//
//	oservd -demo 1024 -max-inflight 8 -queue 32 -query-timeout 30s &
//	curl -s localhost:8343/healthz
//	curl -s localhost:8343/query -d '{"sql":
//	  "SELECT key, COUNT(*) FROM t1 JOIN t2 USING (key) GROUP BY key",
//	  "stats": true}'
//	curl -s localhost:8343/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oblivjoin"
)

// csvFlags collects repeated -csv name=path arguments.
type csvFlags []string

func (c *csvFlags) String() string { return strings.Join(*c, ",") }

func (c *csvFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*c = append(*c, v)
	return nil
}

// options holds oservd's command line.
type options struct {
	csvs                     csvFlags
	addr, dataDir            string
	encrypted, sealed, stats bool
	header, costPlan         bool
	cache, maxInFlight       int
	queueDepth, demo         int
	snapshotEvery, history   int
	queryTimeout             time.Duration
	replanFactor             float64
}

// flags registers every oservd flag on fs. README's flag table names
// exactly this set (main_test.go).
func flags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8343", "listen address")
	fs.BoolVar(&o.encrypted, "encrypted", false, "AES-seal every intermediate table entry")
	fs.BoolVar(&o.sealed, "sealed-catalog", false, "AES-seal registered tables at rest")
	fs.BoolVar(&o.stats, "stats", false, "collect PlanStats for every query by default")
	fs.IntVar(&o.cache, "cache", 0, "prepared-plan LRU capacity (0 = default)")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "admission capacity in cost units of 4096 input rows (0 = unbounded)")
	fs.IntVar(&o.queueDepth, "queue", 0, "admission wait-queue bound (0 = default 64)")
	fs.DurationVar(&o.queryTimeout, "query-timeout", 0, "per-query deadline covering queue wait + execution (0 = none)")
	fs.BoolVar(&o.header, "header", false, "CSV files start with a header row")
	fs.IntVar(&o.demo, "demo", 0, "register demo tables t1, t2, t3 with this many rows")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable catalog directory: sealed WAL + snapshots, recovered on boot (empty = memory-only)")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 0, "commits between automatic snapshots (0 = default 256, <0 disables)")
	fs.IntVar(&o.history, "history", 0, "retained catalog versions for AS OF reads (0 = default 64, <0 unlimited)")
	fs.BoolVar(&o.costPlan, "cost-plan", false, "enable the cost-aware planner: greedy join ordering and predicate pushdown from public cardinalities")
	fs.Float64Var(&o.replanFactor, "replan-factor", 0, "replan when observed comparator cost diverges from the model by this factor (> 1 arms; implies stats)")
	fs.Var(&o.csvs, "csv", "register a CSV file as a table: name=path (repeatable)")
	return o
}

func main() {
	o := flags(flag.CommandLine)
	flag.Parse()

	var opts []oblivjoin.EngineOption
	if o.encrypted {
		opts = append(opts, oblivjoin.WithEncryptedStore())
	}
	if o.sealed {
		opts = append(opts, oblivjoin.WithSealedCatalog())
	}
	if o.stats {
		opts = append(opts, oblivjoin.WithStats())
	}
	if o.cache > 0 {
		opts = append(opts, oblivjoin.WithPlanCache(o.cache))
	}
	if o.maxInFlight > 0 {
		opts = append(opts, oblivjoin.WithMaxInFlight(o.maxInFlight))
	}
	if o.queueDepth > 0 {
		opts = append(opts, oblivjoin.WithQueueDepth(o.queueDepth))
	}
	if o.queryTimeout > 0 {
		opts = append(opts, oblivjoin.WithQueryTimeout(o.queryTimeout))
	}
	if o.dataDir != "" {
		opts = append(opts, oblivjoin.WithDataDir(o.dataDir))
	}
	if o.snapshotEvery != 0 {
		opts = append(opts, oblivjoin.WithSnapshotEvery(o.snapshotEvery))
	}
	if o.history != 0 {
		opts = append(opts, oblivjoin.WithHistory(o.history))
	}
	if o.costPlan {
		opts = append(opts, oblivjoin.WithCostPlan())
	}
	if o.replanFactor > 1 {
		opts = append(opts, oblivjoin.WithReplanFactor(o.replanFactor))
	}
	eng, err := oblivjoin.OpenEngine(opts...)
	if err != nil {
		log.Fatalf("oservd: %v", err)
	}
	if ri := eng.Recovery(); ri != nil {
		log.Printf("oservd: recovered catalog v%d (%d tables: snapshot v%d + %d wal records)",
			ri.Version, ri.Tables, ri.SnapshotVersion, ri.Replayed)
		if ri.Tail != nil {
			log.Printf("oservd: discarded torn wal tail (%d bytes): %v", ri.DiscardedBytes, ri.Tail)
		}
		if !ri.CleanShutdown && (ri.Version > 0 || ri.Replayed > 0) {
			log.Printf("oservd: previous shutdown was not clean; recovered from log")
		}
	}

	for _, spec := range o.csvs {
		name, path, _ := strings.Cut(spec, "=")
		if err := loadCSV(eng, name, path, o.header); err != nil {
			log.Fatalf("oservd: -csv %s: %v", spec, err)
		}
	}
	if o.demo > 0 {
		if err := loadDemo(eng, o.demo); err != nil {
			log.Fatalf("oservd: -demo: %v", err)
		}
	}

	for _, ti := range eng.Tables() {
		log.Printf("oservd: table %s (%d rows)", ti.Name, ti.Rows)
	}
	// An explicit listener (rather than ListenAndServe) so the actual
	// bound address is logged — ":0" deployments, like the crash-
	// injection harness, read it from the log line.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatalf("oservd: listen: %v", err)
	}
	log.Printf("oservd: listening on %s", ln.Addr())

	// Health watcher: log every state transition (ok ⇄ degraded ⇄
	// read-only) so operators see degradation and recovery in the logs
	// without polling /healthz themselves.
	healthDone := make(chan struct{})
	go func() {
		last := eng.Health()
		if last.State != "ok" {
			log.Printf("oservd: health %s: %s", last.State, last.Cause)
		}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-healthDone:
				return
			case <-tick.C:
			}
			h := eng.Health()
			if h.State == last.State && len(h.Quarantined) == len(last.Quarantined) {
				continue
			}
			switch {
			case h.State == "ok":
				log.Printf("oservd: health recovered: ok")
			case len(h.Quarantined) > 0:
				log.Printf("oservd: health %s: %s (quarantined: %s)",
					h.State, h.Cause, strings.Join(h.Quarantined, ", "))
			default:
				log.Printf("oservd: health %s: %s", h.State, h.Cause)
			}
			last = h
		}
	}()
	srv := &http.Server{
		Handler:           eng.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful drain: on SIGINT/SIGTERM stop accepting connections,
	// let in-flight requests (and their queries) finish, then stop
	// query admission and wait for the engine to drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("oservd: draining (in-flight queries finish, new ones are refused)")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("oservd: http shutdown: %v", err)
		}
		if err := eng.Shutdown(ctx); err != nil {
			log.Printf("oservd: engine shutdown: %v", err)
		}
		st := eng.Stats()
		log.Printf("oservd: drained: %d completed, %d failed, %d rejected, %d cancelled (p95 %s)",
			st.Completed, st.Failed, st.Rejected, st.Canceled, time.Duration(st.P95NS))
	}()

	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	close(healthDone)
	<-done
}

func loadCSV(eng *oblivjoin.Engine, name, path string, header bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := oblivjoin.ReadCSV(f, 0, 1, header)
	if err != nil {
		return err
	}
	return registerFresh(eng, name, t)
}

// registerFresh registers t under name, but keeps a recovered table of
// the same name: with -data-dir, a reboot with the same -csv/-demo
// flags must not clobber the durable contents.
func registerFresh(eng *oblivjoin.Engine, name string, t *oblivjoin.Table) error {
	err := eng.Register(name, t)
	var exists *oblivjoin.TableExistsError
	if errors.As(err, &exists) {
		log.Printf("oservd: table %s already present (recovered); keeping stored contents", name)
		return nil
	}
	return err
}

// loadDemo registers three matched tables of n rows each: every key
// appears in all three with short tagged payloads, so joins, chains
// and the GROUP BY fast path all have work to do.
func loadDemo(eng *oblivjoin.Engine, n int) error {
	for ti, tag := range []string{"a", "b", "c"} {
		t := oblivjoin.NewTable()
		for i := 0; i < n; i++ {
			if err := t.Append(uint64(i%(n/2+1)), fmt.Sprintf("%s%d", tag, i)); err != nil {
				return err
			}
		}
		if err := registerFresh(eng, fmt.Sprintf("t%d", ti+1), t); err != nil {
			return err
		}
	}
	return nil
}
