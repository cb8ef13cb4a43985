package core

// This file is the cancellation half of Config: a run executing under a
// cancellable context probes it between the chunks and rounds of the
// sorting and routing networks and at every scan-block boundary, and
// aborts by panicking with an Abort carrying the context's error.
// Execution is sequential, so the probe runs on the one goroutine
// executing the query, always between two store accesses: no access is
// torn mid-flight. The executing query's scratch stores are simply
// abandoned to the garbage collector; nothing the run touched outlives
// it, which is why a cancelled query cannot corrupt a catalog snapshot,
// a cached plan or a sealed store.
//
// Rounds and scan blocks are fixed functions of the (public) input
// sizes, so the probe cadence — and the cancellation latency of at most
// one chunk — leaks nothing about table contents.

// Abort is the panic value carrying a context cancellation out of the
// oblivious operator stack. The stack has no error returns on its hot
// paths (sorting networks, routing waves, carry scans are all
// infallible by construction), so cancellation travels as a panic and
// is recovered exactly once, at the query.Run boundary, where it
// becomes a typed error.
type Abort struct{ Err error }

// checkCancel panics with an Abort when the config's context has been
// cancelled. It is the probe installed between rounds and at block
// boundaries.
func (c *Config) checkCancel() {
	if err := c.Ctx.Err(); err != nil {
		panic(Abort{Err: err})
	}
}

// checkFn returns the cancellation probe to install into round
// executors and scans, or nil when the config carries no cancellable
// context — the nil keeps uncancellable runs (context.Background, no
// context at all) at literally zero probe overhead.
func (c *Config) checkFn() func() {
	if c.Ctx == nil || c.Ctx.Done() == nil {
		return nil
	}
	return c.checkCancel
}

// CheckCtx probes the config's context from operator code between
// oblivious passes (after a Done() == nil fast path) and panics with an
// Abort when it is cancelled. Exported for the physical operators of
// internal/query/exec, which run whole oblivious subroutines back to
// back and probe between them.
func (c *Config) CheckCtx() {
	if c.Ctx != nil && c.Ctx.Done() != nil {
		c.checkCancel()
	}
}
