package oblivjoin

import (
	"errors"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
	"oblivjoin/internal/wal"
)

// The engine's misuse errors are typed so callers can distinguish them
// programmatically (errors.As / errors.Is) instead of matching message
// strings.

// TableExistsError is returned by Engine.Register when the name is
// already taken; overwriting is the explicit Replace operation.
type TableExistsError = catalog.TableExistsError

// UnknownTableError is returned when a query, Drop or schema lookup
// references a table that is not registered.
type UnknownTableError = catalog.UnknownTableError

// InvalidNameError is returned for table names outside the accepted
// grammar (letters, digits and underscores; names fold to lower case).
type InvalidNameError = catalog.InvalidNameError

// ErrNoTables is returned when a query is prepared or executed before
// any table has been registered.
var ErrNoTables = catalog.ErrNoTables

// ErrNilTable is returned by Register and Replace for a nil *Table.
var ErrNilTable = errors.New("oblivjoin: nil table")

// ErrCanceled is wrapped by errors returned from a query whose context
// was cancelled mid-run; such errors also match context.Canceled. A
// cancelled query aborts within one execution round and leaves the
// catalog, the plan cache and concurrent queries untouched.
var ErrCanceled = query.ErrCanceled

// ErrDeadline is wrapped by errors returned from a query whose
// deadline — caller-supplied or the engine's WithQueryTimeout default
// — expired mid-run; such errors also match context.DeadlineExceeded.
var ErrDeadline = query.ErrDeadline

// ErrOverloaded is wrapped by errors returned when a query arrives
// while the admission queue is full (WithMaxInFlight/WithQueueDepth):
// the engine is saturated and the caller should back off and retry.
var ErrOverloaded = service.ErrOverloaded

// ErrShuttingDown is wrapped by errors returned for queries arriving
// after Shutdown began.
var ErrShuttingDown = service.ErrShuttingDown

// ErrSealedAuth is wrapped by errors returned when a sealed store
// block fails authentication mid-query: the affected query fails with
// this typed error, the table is quarantined, and concurrent queries
// against healthy tables are unaffected.
var ErrSealedAuth = table.ErrSealedAuth

// ErrQuarantined is wrapped by errors returned for queries touching a
// quarantined table — one whose sealed backing failed authentication.
// Replace or Restore installs a fresh backing and lifts the mark.
var ErrQuarantined = catalog.ErrQuarantined

// QuarantinedError names the quarantined table and carries the
// authentication failure that fenced it.
type QuarantinedError = catalog.QuarantinedError

// ErrReadOnly is wrapped by errors returned for mutations while the
// durable store is in read-only degraded mode after persistent write
// failure; reads keep serving, and a successful Checkpoint restores
// write service.
var ErrReadOnly = wal.ErrReadOnly
