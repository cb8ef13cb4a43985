package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/query"
	"oblivjoin/internal/table"
	"oblivjoin/internal/wal"
)

// This file is the traffic-facing JSON surface of the service — the
// handler cmd/oservd serves:
//
//	POST /query    {"sql": "...", "stats": true}
//	GET  /tables   list registered schemas
//	POST /tables   {"name": "t", "rows": [{"key": 1, "data": "a"}]}
//	GET  /healthz  liveness + catalog and plan-cache counters
//	GET  /stats    admission occupancy, outcome counters, latency
//	               percentiles, plan-cache counters
//
// Every response is JSON; errors are {"error": "..."} with a status
// code mapped from the service's typed errors: overload, shutdown and
// query timeouts are 503 (with Retry-After on overload), a
// client-driven cancellation is 499. Query execution runs under the
// request's context, so a client that disconnects mid-query cancels
// it within one execution round instead of leaving it running.

// QueryRequest is the POST /query body. Unset option fields inherit
// the service defaults.
type QueryRequest struct {
	SQL       string `json:"sql"`
	Stats     *bool  `json:"stats,omitempty"`
	TraceHash *bool  `json:"trace_hash,omitempty"`
	// Explain short-circuits execution and returns only the plan.
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Plan    string     `json:"plan,omitempty"`
	Stats   *StatsJSON `json:"stats,omitempty"`
}

// StatsJSON is the wire form of query.PlanStats.
type StatsJSON struct {
	Operators   []OperatorJSON `json:"operators"`
	Comparators uint64         `json:"comparators"`
	RouteOps    uint64         `json:"route_ops"`
	TraceEvents uint64         `json:"trace_events"`
	TraceHash   string         `json:"trace_hash,omitempty"`
	TotalNS     int64          `json:"total_ns"`
	// PeakBytes and TotalAllocBytes are the run's deterministic
	// allocation-gauge readings.
	PeakBytes       int64 `json:"peak_bytes"`
	TotalAllocBytes int64 `json:"total_alloc_bytes"`
	CacheHit        bool  `json:"cache_hit"`
}

// OperatorJSON is one plan stage's report on the wire.
type OperatorJSON struct {
	Op     string `json:"op"`
	WallNS int64  `json:"wall_ns"`
	Rows   int    `json:"rows"`
}

func statsJSON(ps *query.PlanStats) *StatsJSON {
	if ps == nil {
		return nil
	}
	out := &StatsJSON{
		Comparators:     ps.Comparators,
		RouteOps:        ps.RouteOps,
		TraceEvents:     ps.TraceEvents,
		TraceHash:       ps.TraceHash,
		TotalNS:         int64(ps.Total / time.Nanosecond),
		PeakBytes:       ps.PeakBytes,
		TotalAllocBytes: ps.TotalAllocBytes,
		CacheHit:        ps.CacheHit,
	}
	for _, op := range ps.Operators {
		out.Operators = append(out.Operators, OperatorJSON{
			Op: op.Op, WallNS: int64(op.Wall / time.Nanosecond), Rows: op.Rows,
		})
	}
	return out
}

// TableRequest is the POST /tables body.
type TableRequest struct {
	Name string    `json:"name"`
	Rows []RowJSON `json:"rows"`
	// Replace overwrites an existing table instead of failing with 409.
	Replace bool `json:"replace,omitempty"`
}

// RowJSON is one row on the wire.
type RowJSON struct {
	Key  uint64 `json:"key"`
	Data string `json:"data"`
}

// HealthResponse is the GET /healthz reply. Status mirrors the health
// state machine (ok, degraded, read-only); the response is always 200
// — /healthz is liveness, and a degraded daemon is still alive and
// serving reads. Load balancers wanting to shed writes inspect Status.
type HealthResponse struct {
	Status      string     `json:"status"`
	Cause       string     `json:"cause,omitempty"`
	Quarantined []string   `json:"quarantined,omitempty"`
	Tables      int        `json:"tables"`
	Version     uint64     `json:"version"`
	PlanCache   CacheStats `json:"plan_cache"`
}

// NewHandler returns the HTTP handler serving s.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if req.SQL == "" {
			writeErr(w, http.StatusBadRequest, errors.New("missing \"sql\""))
			return
		}
		var opts []SessionOption
		if req.Stats != nil {
			opts = append(opts, WithStats(*req.Stats))
		}
		if req.TraceHash != nil {
			opts = append(opts, WithTraceHash(*req.TraceHash))
		}
		st, err := s.Prepare(r.Context(), req.SQL, opts...)
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		if req.Explain {
			writeJSON(w, http.StatusOK, QueryResponse{Plan: st.Explain()})
			return
		}
		res, ps, err := st.Exec(r.Context())
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{Columns: res.Columns, Rows: res.Rows, Stats: statsJSON(ps)})
	})

	mux.HandleFunc("GET /tables", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tables": s.Tables()})
	})

	mux.HandleFunc("POST /tables", func(w http.ResponseWriter, r *http.Request) {
		var req TableRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTableBody)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		rows := make([]table.Row, len(req.Rows))
		for i, rr := range req.Rows {
			d, err := table.MakeData(rr.Data)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			rows[i] = table.Row{J: rr.Key, D: d}
		}
		var err error
		if req.Replace {
			err = s.Replace(req.Name, rows)
		} else {
			err = s.Register(req.Name, rows)
		}
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		// Built locally rather than re-read from the catalog: a
		// concurrent Drop/Replace must not turn this successful
		// registration into a 404 or a foreign row count.
		name, _ := catalog.Normalize(req.Name)
		writeJSON(w, http.StatusCreated, catalog.Schema{Name: name, Rows: len(rows)})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		writeJSON(w, http.StatusOK, HealthResponse{
			Status:      string(h.State),
			Cause:       h.Cause,
			Quarantined: h.Quarantined,
			Tables:      s.cat.Len(),
			Version:     s.cat.Version(),
			PlanCache:   s.CacheStats(),
		})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatsResponse{
			Service:   s.Stats(),
			PlanCache: s.CacheStats(),
		})
	})
	return mux
}

// StatsResponse is the GET /stats reply.
type StatsResponse struct {
	Service   ServiceStats `json:"service"`
	PlanCache CacheStats   `json:"plan_cache"`
}

// Request-body bounds: a query is SQL text plus a few options; a table
// upload is bounded by what the engine can hold, and an unbounded body
// would let one request OOM the daemon.
const (
	maxQueryBody = 1 << 20  // 1 MiB
	maxTableBody = 64 << 20 // 64 MiB
)

// statusClientClosedRequest is nginx's conventional status for a
// request whose client went away before the response; there is no
// standard-library constant. The code is almost always unobservable
// (the connection is gone) but it keeps access logs honest about why
// the query aborted.
const statusClientClosedRequest = 499

// errStatus maps the service's typed errors onto HTTP status codes;
// anything unrecognized (parse errors, payload validation) is a 400.
// Server-side faults — a sealed catalog store failing authentication,
// a broken engine invariant, a missing cipher — are 500s, not the
// client's doing. Admission rejections, shutdown and query timeouts
// are 503: the request was well-formed, the service just cannot take
// it right now (or took too long) — retryable, unlike a 4xx.
func errStatus(err error) int {
	var unknown *catalog.UnknownTableError
	var exists *catalog.TableExistsError
	var version *catalog.VersionError
	switch {
	// Quarantine outranks the generic auth-failure 500: the error
	// wraps crypto.ErrAuth, but it names a fenced table the client can
	// act on (restore or replace it), so it is a 409, not a 500.
	case errors.Is(err, catalog.ErrQuarantined):
		return http.StatusConflict
	// A read-only store refuses the write but will take it again after
	// an operator restores disk health — retryable, hence 503.
	case errors.Is(err, wal.ErrReadOnly):
		return http.StatusServiceUnavailable
	case errors.Is(err, crypto.ErrAuth), errors.Is(err, query.ErrInternal),
		errors.Is(err, table.ErrSealedAuth):
		return http.StatusInternalServerError
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShuttingDown),
		errors.Is(err, query.ErrDeadline):
		return http.StatusServiceUnavailable
	case errors.Is(err, query.ErrCanceled):
		return statusClientClosedRequest
	case errors.As(err, &unknown), errors.As(err, &version):
		// An AS OF version outside the retained window is "not found",
		// like a missing table: correct request shape, absent object.
		return http.StatusNotFound
	case errors.As(err, &exists), errors.Is(err, catalog.ErrNoTables):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
