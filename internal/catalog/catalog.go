// Package catalog is the shared named-table registry of the query
// service layer: a concurrent-safe mapping from table names to row
// sets, with per-table schemas, a monotonic version counter that the
// plan cache keys on, and a choice of backing store — plain in-process
// slices or AES-sealed blobs, the at-rest counterpart of the engine's
// encrypted intermediate stores.
//
// The catalog is MVCC: every Register, Replace, Drop, Branch and
// RestoreTable produces a new immutable version (a fresh name→table
// map sharing unchanged table backings with its predecessor), and a
// bounded history of recent versions is retained. Readers pin a
// version with Pin or At and read through the returned View — writers
// proceed without ever disturbing a pinned reader, which is what lets
// long-running queries race Replace/Drop safely and lets the SQL layer
// offer AS OF time-travel reads over the retained window.
//
// Registration is copy-on-register: the catalog stores its own copy of
// the rows, so later mutations of the caller's slice never leak into
// running queries. Readers receive snapshots that they must treat as
// immutable; every query operator in this repository already does
// (operators allocate their own stores and never write into their
// input slices), which is what makes one snapshot shareable across
// concurrently executing queries.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/table"
)

// Schema describes one registered table: its (normalized) name and its
// public row count. All tables share the repository's fixed physical
// schema — a uint64 join key and a fixed-width payload — so the row
// count is the only per-table shape.
type Schema struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

// TableExistsError reports a Register of a name that is already taken.
// Overwriting is a separate, explicit operation (Replace), never an
// accident of re-registration.
type TableExistsError struct{ Name string }

func (e *TableExistsError) Error() string {
	return fmt.Sprintf("catalog: table %q already registered (use Replace to overwrite)", e.Name)
}

// UnknownTableError reports a reference to a table the catalog does not
// hold — from a query plan, a Drop, or a schema lookup.
type UnknownTableError struct{ Name string }

func (e *UnknownTableError) Error() string {
	return fmt.Sprintf("catalog: unknown table %q", e.Name)
}

// InvalidNameError reports a table name outside the accepted grammar
// (a letter or underscore, then letters, digits and underscores; names
// fold to lower case). The grammar matches the SQL lexer's identifier
// rule, so every registrable name is also referenceable in a query.
type InvalidNameError struct{ Name string }

func (e *InvalidNameError) Error() string {
	if e.Name == "" {
		return "catalog: empty table name"
	}
	return fmt.Sprintf("catalog: invalid table name %q (want a letter or underscore, then letters, digits or underscores)", e.Name)
}

// VersionError reports an At/AS OF reference to a catalog version that
// is not available: either newer than the current version or older
// than the retained history window.
type VersionError struct {
	Version uint64 // the requested version
	Oldest  uint64 // oldest retained version
	Newest  uint64 // current version
}

func (e *VersionError) Error() string {
	if e.Version > e.Newest {
		return fmt.Sprintf("catalog: version %d not yet written (current version is %d)", e.Version, e.Newest)
	}
	return fmt.Sprintf("catalog: version %d no longer retained (history keeps versions %d..%d)", e.Version, e.Oldest, e.Newest)
}

// ErrNoTables is returned when a query is prepared or executed against
// a catalog with no registered tables.
var ErrNoTables = errors.New("catalog: no tables registered")

// ErrQuarantined is the sentinel wrapped by every *QuarantinedError,
// so callers can branch on the class with errors.Is without knowing
// the table.
var ErrQuarantined = errors.New("catalog: table quarantined")

// QuarantinedError reports a read of a quarantined table: its sealed
// backing failed authentication (or an operator quarantined it), so
// queries against it are refused until Replace or RestoreTable
// installs a fresh backing. errors.Is matches ErrQuarantined and the
// recorded cause.
type QuarantinedError struct {
	Name  string
	Cause error // the auth failure (or operator reason); may be nil
}

func (e *QuarantinedError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("catalog: table %q quarantined", e.Name)
	}
	return fmt.Sprintf("catalog: table %q quarantined: %v", e.Name, e.Cause)
}

// Unwrap exposes the class sentinel and the cause to errors.Is/As.
func (e *QuarantinedError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrQuarantined}
	}
	return []error{ErrQuarantined, e.Cause}
}

// Normalize folds name to lower case and validates it against the
// table-name grammar.
func Normalize(name string) (string, error) {
	if name == "" {
		return "", &InvalidNameError{Name: name}
	}
	b := []byte(name)
	for i, r := range b {
		if r >= 'A' && r <= 'Z' {
			b[i] = r - 'A' + 'a'
			r = b[i]
		}
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return "", &InvalidNameError{Name: name}
		}
		// The SQL lexer starts identifiers at a letter or underscore; a
		// digit-leading name would register fine but be unqueryable.
		if i == 0 && r >= '0' && r <= '9' {
			return "", &InvalidNameError{Name: name}
		}
	}
	return string(b), nil
}

// stored is one table's backing: exactly one of rows (plain) or sealed
// (AES-sealed encoded rows) is set. A stored is immutable once built,
// which is what lets catalog versions share backings and lets Branch
// alias a table at zero copy cost.
type stored struct {
	rows   []table.Row
	sealed []byte
	n      int
}

// state is one immutable catalog version. Mutations never modify a
// state in place; they build a successor with a fresh map.
type state struct {
	version uint64
	tables  map[string]*stored
}

// DefaultHistory is the number of recent versions a catalog retains for
// Pin/At/AS OF reads when SetHistory has not been called.
const DefaultHistory = 64

// Catalog is a concurrent-safe named-table registry. The zero value is
// not usable; construct with New or NewSealed.
type Catalog struct {
	mu     sync.RWMutex
	cipher *crypto.Cipher // non-nil: sealed backing stores
	cur    *state
	hist   []*state // ascending by version; last element == cur

	// Quarantine is operational state, not versioned data: it marks
	// names whose sealed backing failed authentication, so repeated
	// queries fail fast with a typed error instead of re-attempting
	// decryption of known-bad ciphertext. It lives under its own
	// mutex because the check sits on the lock-free View read path —
	// a pinned view must not contend with catalog writers.
	quarMu sync.Mutex
	quar   map[string]error

	keep int // history retention; <0 = unlimited
}

// New returns an empty catalog with plain in-process backing.
func New() *Catalog {
	st := &state{version: 0, tables: map[string]*stored{}}
	return &Catalog{cur: st, hist: []*state{st}, quar: map[string]error{}, keep: DefaultHistory}
}

// NewSealed returns an empty catalog whose backing stores are AES-
// sealed under cipher: registered rows are encoded and sealed at rest,
// and every snapshot authenticates and decrypts a fresh copy.
func NewSealed(cipher *crypto.Cipher) *Catalog {
	c := New()
	c.cipher = cipher
	return c
}

// SetHistory bounds how many recent versions the catalog retains for
// Pin/At/AS OF reads. n <= 0 means unlimited; n >= 1 keeps the n most
// recent versions (the current version always counts as one). Views
// already pinned survive trimming — retention only bounds which
// versions At can still resolve.
func (c *Catalog) SetHistory(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		c.keep = -1
		return
	}
	c.keep = n
	c.trimLocked()
}

func (c *Catalog) trimLocked() {
	if c.keep > 0 && len(c.hist) > c.keep {
		// Copy the tail so the dropped states' map headers are
		// collectable (a re-slice would pin the whole backing array).
		keep := make([]*state, c.keep)
		copy(keep, c.hist[len(c.hist)-c.keep:])
		c.hist = keep
	}
}

func (c *Catalog) store(rows []table.Row) *stored {
	if c.cipher == nil {
		cp := make([]table.Row, len(rows))
		copy(cp, rows)
		return &stored{rows: cp, n: len(rows)}
	}
	blob := table.EncodeRows(rows)
	sealed := make([]byte, crypto.SealedLen(len(blob)))
	c.cipher.Seal(sealed, blob)
	return &stored{sealed: sealed, n: len(rows)}
}

func (c *Catalog) open(st *stored) ([]table.Row, error) {
	if st.sealed == nil {
		return st.rows, nil
	}
	blob := make([]byte, len(st.sealed)-crypto.Overhead)
	if err := c.cipher.Open(blob, st.sealed); err != nil {
		return nil, fmt.Errorf("catalog: sealed table store: %w", err)
	}
	return table.DecodeRows(blob, st.n), nil
}

// openNamed is the quarantine-aware open used by snapshot reads: a
// quarantined name fails fast without touching its backing, and an
// authentication failure quarantines the name so every later read of
// any version fails the same typed way until Replace or RestoreTable
// installs a fresh backing.
func (c *Catalog) openNamed(name string, st *stored) ([]table.Row, error) {
	if cause, ok := c.QuarantineCause(name); ok {
		return nil, &QuarantinedError{Name: name, Cause: cause}
	}
	rows, err := c.open(st)
	if err != nil {
		if errors.Is(err, crypto.ErrAuth) {
			c.Quarantine(name, err)
			return nil, &QuarantinedError{Name: name, Cause: err}
		}
		return nil, err
	}
	return rows, nil
}

// Quarantine marks name as refusing reads with the given cause. It is
// normally invoked automatically when a sealed backing fails
// authentication, but is exported so operators (and chaos tests) can
// fence a table by hand. Quarantine is operational state: it is not a
// catalog mutation and does not bump the version.
func (c *Catalog) Quarantine(name string, cause error) {
	n, err := Normalize(name)
	if err != nil {
		return
	}
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	if _, dup := c.quar[n]; !dup {
		c.quar[n] = cause
	}
}

// QuarantineCause reports whether name is quarantined and, when it is,
// the recorded cause.
func (c *Catalog) QuarantineCause(name string) (error, bool) {
	n, err := Normalize(name)
	if err != nil {
		return nil, false
	}
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	cause, ok := c.quar[n]
	return cause, ok
}

// Quarantined lists the quarantined table names, sorted.
func (c *Catalog) Quarantined() []string {
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	out := make([]string, 0, len(c.quar))
	for name := range c.quar {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// unquarantine lifts the mark after a mutation installed a fresh
// backing for name (Replace, RestoreTable, Drop, Load).
func (c *Catalog) unquarantine(name string) {
	c.quarMu.Lock()
	defer c.quarMu.Unlock()
	delete(c.quar, name)
}

// mutate installs a new version built by apply over a copy of the
// current name→table map. apply returning an error abandons the new
// version: the current version and the counter are left untouched.
func (c *Catalog) mutate(apply func(tables map[string]*stored) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[string]*stored, len(c.cur.tables)+1)
	for k, v := range c.cur.tables {
		next[k] = v
	}
	if err := apply(next); err != nil {
		return err
	}
	ns := &state{version: c.cur.version + 1, tables: next}
	c.cur = ns
	c.hist = append(c.hist, ns)
	c.trimLocked()
	return nil
}

// Register makes rows queryable under name. It returns a
// *TableExistsError when the name is already taken and an
// *InvalidNameError when the name is outside the grammar. The catalog
// keeps its own copy of rows.
func (c *Catalog) Register(name string, rows []table.Row) error {
	name, err := Normalize(name)
	if err != nil {
		return err
	}
	// Copying (and, for sealed catalogs, encrypting) the table happens
	// before taking the write lock, so large registrations never stall
	// concurrent readers.
	st := c.store(rows)
	return c.mutate(func(tables map[string]*stored) error {
		if _, ok := tables[name]; ok {
			return &TableExistsError{Name: name}
		}
		tables[name] = st
		return nil
	})
}

// Replace registers rows under name, overwriting any previous table of
// that name — the explicit counterpart of the Register duplicate error.
func (c *Catalog) Replace(name string, rows []table.Row) error {
	name, err := Normalize(name)
	if err != nil {
		return err
	}
	st := c.store(rows)
	err = c.mutate(func(tables map[string]*stored) error {
		tables[name] = st
		return nil
	})
	if err == nil {
		c.unquarantine(name)
	}
	return err
}

// Drop removes the named table, returning *UnknownTableError when it
// is not registered.
func (c *Catalog) Drop(name string) error {
	name, err := Normalize(name)
	if err != nil {
		return err
	}
	err = c.mutate(func(tables map[string]*stored) error {
		if _, ok := tables[name]; !ok {
			return &UnknownTableError{Name: name}
		}
		delete(tables, name)
		return nil
	})
	if err == nil {
		c.unquarantine(name)
	}
	return err
}

// Branch makes the contents of table src — as of catalog version asOf,
// or the current version when asOf is 0 — queryable under the new name
// dst. Because table backings are immutable, a branch aliases the
// source backing at zero copy cost; subsequent Replace/Drop of either
// name never affects the other.
func (c *Catalog) Branch(dst, src string, asOf uint64) error {
	dst, err := Normalize(dst)
	if err != nil {
		return err
	}
	src, err = Normalize(src)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	from, err := c.stateAtLocked(asOf)
	if err != nil {
		return err
	}
	st, ok := from.tables[src]
	if !ok {
		return &UnknownTableError{Name: src}
	}
	if _, taken := c.cur.tables[dst]; taken {
		return &TableExistsError{Name: dst}
	}
	next := make(map[string]*stored, len(c.cur.tables)+1)
	for k, v := range c.cur.tables {
		next[k] = v
	}
	next[dst] = st
	ns := &state{version: c.cur.version + 1, tables: next}
	c.cur = ns
	c.hist = append(c.hist, ns)
	c.trimLocked()
	return nil
}

// RestoreTable rewinds table name to its contents at catalog version
// asOf (asOf 0 means the current version, a no-op restore). The table
// must exist at asOf; it need not currently exist, so RestoreTable can
// resurrect a dropped table from retained history.
func (c *Catalog) RestoreTable(name string, asOf uint64) error {
	name, err := Normalize(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	from, err := c.stateAtLocked(asOf)
	if err != nil {
		return err
	}
	st, ok := from.tables[name]
	if !ok {
		return &UnknownTableError{Name: name}
	}
	next := make(map[string]*stored, len(c.cur.tables)+1)
	for k, v := range c.cur.tables {
		next[k] = v
	}
	next[name] = st
	ns := &state{version: c.cur.version + 1, tables: next}
	c.cur = ns
	c.hist = append(c.hist, ns)
	c.trimLocked()
	c.unquarantine(name)
	return nil
}

// Load resets the catalog to exactly tables at the given version — the
// recovery entry point: a snapshot loader installs the snapshot state,
// then WAL replay applies the tail through the normal mutation path.
// History restarts at this single version.
func (c *Catalog) Load(tables map[string][]table.Row, version uint64) error {
	built := make(map[string]*stored, len(tables))
	for name, rows := range tables {
		n, err := Normalize(name)
		if err != nil {
			return err
		}
		built[n] = c.store(rows)
	}
	c.mu.Lock()
	st := &state{version: version, tables: built}
	c.cur = st
	c.hist = []*state{st}
	c.mu.Unlock()
	// Load installs entirely fresh backings (recovery from durable
	// state), so any standing quarantine is stale.
	c.quarMu.Lock()
	c.quar = map[string]error{}
	c.quarMu.Unlock()
	return nil
}

// stateAtLocked resolves a version to a retained state; 0 means the
// current version. Callers hold c.mu (read or write).
func (c *Catalog) stateAtLocked(version uint64) (*state, error) {
	if version == 0 || version == c.cur.version {
		return c.cur, nil
	}
	oldest := c.hist[0].version
	if version > c.cur.version || version < oldest {
		return nil, &VersionError{Version: version, Oldest: oldest, Newest: c.cur.version}
	}
	// hist is ascending and dense in version, so index directly.
	st := c.hist[version-oldest]
	if st.version != version {
		// Defensive: fall back to a scan if density was broken (Load
		// restarts history, so it should never be).
		for _, s := range c.hist {
			if s.version == version {
				return s, nil
			}
		}
		return nil, &VersionError{Version: version, Oldest: oldest, Newest: c.cur.version}
	}
	return st, nil
}

// Pin returns a View of the current version. The view reads that
// version forever, regardless of later mutations or history trimming.
func (c *Catalog) Pin() *View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &View{cat: c, st: c.cur}
}

// At returns a View of the given retained version (0 pins the current
// version, like Pin). Versions newer than the current one or older
// than the retained history yield a *VersionError.
func (c *Catalog) At(version uint64) (*View, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, err := c.stateAtLocked(version)
	if err != nil {
		return nil, err
	}
	return &View{cat: c, st: st}, nil
}

// RowsAt returns the named table's rows as of the given version (0 =
// current). The returned slice must be treated as immutable.
func (c *Catalog) RowsAt(name string, version uint64) ([]table.Row, error) {
	v, err := c.At(version)
	if err != nil {
		return nil, err
	}
	m, err := v.SnapshotTables([]string{name})
	if err != nil {
		return nil, err
	}
	return m[name], nil
}

// Has reports whether name resolves to a registered table.
func (c *Catalog) Has(name string) bool { return c.Pin().Has(name) }

// Len returns the number of registered tables.
func (c *Catalog) Len() int { return c.Pin().Len() }

// Version returns the catalog's mutation counter. It increases on every
// Register, Replace and Drop, so any value observed twice brackets an
// unchanged catalog — the property the plan cache keys on.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cur.version
}

// Schema returns the named table's schema.
func (c *Catalog) Schema(name string) (Schema, error) { return c.Pin().Schema(name) }

// Schemas lists every registered table, sorted by name.
func (c *Catalog) Schemas() []Schema { return c.Pin().Schemas() }

// Snapshot returns a point-in-time view of every registered table,
// suitable for one query execution. Plain backing shares the catalog's
// (immutable) row slices at zero copy cost; sealed backing
// authenticates and decrypts a fresh copy per snapshot. The returned
// map is owned by the caller; the row slices must not be mutated.
func (c *Catalog) Snapshot() (map[string][]table.Row, error) { return c.Pin().Snapshot() }

// SnapshotTables is Snapshot restricted to the named tables — what a
// statement execution takes, so sealed catalogs pay decryption only
// for the tables its plan references. A name no longer registered
// (e.g. dropped after the statement was prepared) returns a
// *UnknownTableError.
func (c *Catalog) SnapshotTables(names []string) (map[string][]table.Row, error) {
	return c.Pin().SnapshotTables(names)
}

// View is a pinned, immutable catalog version. All reads through a
// view observe exactly the version it was pinned at, no matter what
// writers do afterwards — the reader half of the MVCC contract. Views
// are cheap (two pointers) and safe for concurrent use; since the
// underlying state is immutable, view reads take no lock at all.
type View struct {
	cat *Catalog
	st  *state
}

// Version returns the pinned catalog version.
func (v *View) Version() uint64 { return v.st.version }

// Has reports whether name resolves to a table at the pinned version.
func (v *View) Has(name string) bool {
	name, err := Normalize(name)
	if err != nil {
		return false
	}
	_, ok := v.st.tables[name]
	return ok
}

// Len returns the number of tables at the pinned version.
func (v *View) Len() int { return len(v.st.tables) }

// Schema returns the named table's schema at the pinned version.
func (v *View) Schema(name string) (Schema, error) {
	name, err := Normalize(name)
	if err != nil {
		return Schema{}, err
	}
	st, ok := v.st.tables[name]
	if !ok {
		return Schema{}, &UnknownTableError{Name: name}
	}
	return Schema{Name: name, Rows: st.n}, nil
}

// Schemas lists every table at the pinned version, sorted by name.
func (v *View) Schemas() []Schema {
	out := make([]Schema, 0, len(v.st.tables))
	for name, st := range v.st.tables {
		out = append(out, Schema{Name: name, Rows: st.n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot returns every table at the pinned version (see
// Catalog.Snapshot for ownership rules).
func (v *View) Snapshot() (map[string][]table.Row, error) {
	out := make(map[string][]table.Row, len(v.st.tables))
	for name, st := range v.st.tables {
		rows, err := v.cat.openNamed(name, st)
		if err != nil {
			return nil, err
		}
		out[name] = rows
	}
	return out, nil
}

// SnapshotTables is Snapshot restricted to the named tables.
func (v *View) SnapshotTables(names []string) (map[string][]table.Row, error) {
	out := make(map[string][]table.Row, len(names))
	for _, name := range names {
		name, err := Normalize(name)
		if err != nil {
			return nil, err
		}
		st, ok := v.st.tables[name]
		if !ok {
			return nil, &UnknownTableError{Name: name}
		}
		rows, err := v.cat.openNamed(name, st)
		if err != nil {
			return nil, err
		}
		out[name] = rows
	}
	return out, nil
}
