package table

import (
	"errors"
	"fmt"
)

// Typed storage-fault sentinels. Auth failures and spill IO errors on
// the oblivious hot path cannot be returned through the Store
// interface (its methods have no error results — by design, so the
// data-oblivious inner loops stay branch-free), so they unwind as a
// *Fault panic instead of a raw string. The query runner recovers the
// *Fault at its boundary and returns the wrapped error, which
// errors.Is-matches one of these sentinels: a tampered block or a
// failed spill disk kills one query, not the process.
var (
	// ErrSealedAuth: a sealed block or entry failed authentication —
	// the untrusted memory or spill file was tampered with.
	ErrSealedAuth = errors.New("table: sealed data authentication failed")

	// ErrSpillIO: reading or writing a spill file failed (EIO, ENOSPC,
	// short write, ...).
	ErrSpillIO = errors.New("table: spill file I/O failed")
)

// Fault is the panic payload carrying a typed storage fault across the
// error-free Store interface. Only the query runner's boundary recover
// (and the worker pool's panic barrier) should see it.
type Fault struct {
	Err error
}

func (f *Fault) Error() string { return f.Err.Error() }
func (f *Fault) Unwrap() error { return f.Err }

// authErr types a sealed-block authentication failure (nil stays
// nil). Both the sentinel and the cause stay errors.Is-matchable.
func authErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: block: %w", ErrSealedAuth, err)
}

// ioErr types a spill-file IO failure (nil stays nil), keeping the
// underlying errno (EIO, ENOSPC, ...) matchable through the wrap.
func ioErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s: %w", ErrSpillIO, op, err)
}

// raise unwinds with err, if any, as a *Fault panic. The sealed store
// calls it only after releasing its block mutexes.
func raise(err error) {
	if err != nil {
		panic(&Fault{Err: err})
	}
}

// AsFault returns the typed error carried by a recovered panic value,
// or (nil, false) when r is not a storage fault. Recover boundaries
// use it to translate the panic back into an error result.
func AsFault(r any) (error, bool) {
	if f, ok := r.(*Fault); ok {
		return f.Err, true
	}
	return nil, false
}
