// Package fault provides the storage fault-injection seam: a small
// filesystem interface (FS) that the WAL performs all its file IO
// through, a passthrough OS implementation, and a
// deterministic, seeded Injector that wraps any FS and injects
// scheduled faults — EIO, ENOSPC, short writes, fsync failure, added
// latency, and ciphertext bit flips on reads.
//
// The seam exists so that the chaos tests can drive the full service
// under storage failure without touching the real disk layer, while
// production runs pay only an interface-call indirection.
package fault

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// File is the subset of *os.File the storage layers use. The WAL
// appends; the positional ReaderAt/WriterAt half is kept for the
// repository benchmark's counting FS, which wraps it.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam. A nil FS everywhere means "use OS".
type FS interface {
	// OpenFile mirrors os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile mirrors os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename mirrors os.Rename.
	Rename(oldpath, newpath string) error
	// Remove mirrors os.Remove.
	Remove(name string) error
	// Truncate mirrors os.Truncate.
	Truncate(name string, size int64) error
}

// OS is the passthrough FS over the real operating system.
var OS FS = osFS{}

// Or returns fs if non-nil, else OS. Callers thread optional FS fields
// through with fault.Or(opts.FS) instead of nil checks at every site.
func Or(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Op classifies a filesystem operation for rule matching.
type Op string

const (
	OpOpen     Op = "open"  // OpenFile and CreateTemp
	OpRead     Op = "read"  // ReadAt and ReadFile
	OpWrite    Op = "write" // Write and WriteAt
	OpSync     Op = "sync"  // File.Sync
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
)

// Injection errors. EIO/ENOSPC are the real syscall errnos so injected
// failures are indistinguishable from kernel-reported ones.
var (
	EIO    = syscall.EIO
	ENOSPC = syscall.ENOSPC
)

// Rule schedules one fault. A rule matches a call when the op class
// and path substring match; it fires on the matching calls numbered
// [After, After+Count) (zero Count = every matching call from After
// on). Exactly one of the effect fields applies:
//
//   - Err != nil, ShortBy == 0: the call fails with Err.
//   - Err != nil, ShortBy > 0 (writes): a short write — the first
//     len-ShortBy bytes land, then Err is returned.
//   - FlipBit (reads): one deterministic pseudo-random bit of the
//     returned data is flipped (ciphertext tamper).
//   - Delay > 0: added latency; may combine with any of the above and
//     is also usable alone.
type Rule struct {
	Op      Op            // "" matches every op class
	Path    string        // substring of the file path; "" matches all
	After   int           // skip this many matching calls first
	Count   int           // how many matching calls fire (0 = all)
	Err     error         // error to inject
	ShortBy int           // short-write: bytes withheld from the tail
	FlipBit bool          // read tamper: flip one bit of the result
	Delay   time.Duration // added latency

	hits int // matching calls seen (internal)
}

// Stats counts injected faults per op class since the last Reset.
type Stats struct {
	Errors  map[Op]uint64 // injected hard errors (incl. short writes)
	Tampers uint64        // bit flips applied to reads
	Delays  uint64        // latency injections
}

// Injector is a deterministic fault-injecting FS wrapping an inner FS.
// Rules are armed with Arm and removed with Disarm; the zero schedule
// passes everything through. All methods are safe for concurrent use;
// rule matching is serialized so "fire on the Nth call" is exact.
type Injector struct {
	inner FS

	mu     sync.Mutex
	rules  []*Rule
	rng    uint64 // splitmix64 state for bit-flip positions
	errs   map[Op]uint64
	tamper uint64
	delays uint64
}

// NewInjector returns an Injector over inner (nil = OS) whose
// tamper-bit choices derive deterministically from seed.
func NewInjector(inner FS, seed uint64) *Injector {
	return &Injector{inner: Or(inner), rng: seed, errs: make(map[Op]uint64)}
}

// Arm installs rules (appending to any already armed).
func (in *Injector) Arm(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range rules {
		r := rules[i]
		in.rules = append(in.rules, &r)
	}
}

// Disarm removes all rules. In-flight calls finish with the schedule
// they matched; new calls pass through.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.rules = nil
	in.mu.Unlock()
}

// Stats returns a copy of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := Stats{Errors: make(map[Op]uint64, len(in.errs)), Tampers: in.tamper, Delays: in.delays}
	for k, v := range in.errs {
		s.Errors[k] = v
	}
	return s
}

// Injected reports the total number of injected faults of any kind.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.tamper + in.delays
	for _, v := range in.errs {
		n += v
	}
	return n
}

// splitmix64 — deterministic, allocation-free position source for bit
// flips. Called under in.mu.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decision is what the matcher hands the op implementations.
type decision struct {
	err     error
	shortBy int
	flip    bool
	flipPos uint64 // raw randomness for the bit position
	delay   time.Duration
}

// match finds the first armed rule that fires for (op, path) and
// consumes one hit from it. Counters are bumped here so harnesses can
// assert exactly how many faults landed.
func (in *Injector) match(op Op, path string) (decision, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		hit := r.hits
		r.hits++
		if hit < r.After {
			continue
		}
		if r.Count > 0 && hit >= r.After+r.Count {
			continue
		}
		d := decision{err: r.Err, shortBy: r.ShortBy, flip: r.FlipBit, delay: r.Delay}
		if d.flip {
			d.flipPos = in.next()
			in.tamper++
		}
		if d.err != nil {
			in.errs[op]++
		}
		if d.delay > 0 {
			in.delays++
		}
		return d, true
	}
	return decision{}, false
}

func (in *Injector) apply(op Op, path string) error {
	d, ok := in.match(op, path)
	if !ok {
		return nil
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d.err
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := in.apply(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := in.apply(OpOpen, dir+"/"+pattern); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	d, ok := in.match(OpRead, name)
	if ok && d.delay > 0 {
		time.Sleep(d.delay)
	}
	if ok && d.err != nil {
		return nil, d.err
	}
	b, err := in.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if ok && d.flip && len(b) > 0 {
		pos := d.flipPos % uint64(len(b)*8)
		b[pos/8] ^= 1 << (pos % 8)
	}
	return b, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.apply(OpRename, oldpath); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if err := in.apply(OpRemove, name); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	if err := in.apply(OpTruncate, name); err != nil {
		return err
	}
	return in.inner.Truncate(name, size)
}

// faultFile applies the injector's schedule to per-file operations.
type faultFile struct {
	f  File
	in *Injector
}

func (ff *faultFile) Name() string { return ff.f.Name() }

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	d, ok := ff.in.match(OpRead, ff.f.Name())
	if ok && d.delay > 0 {
		time.Sleep(d.delay)
	}
	if ok && d.err != nil {
		return 0, d.err
	}
	n, err := ff.f.ReadAt(p, off)
	if ok && d.flip && n > 0 {
		pos := d.flipPos % uint64(n*8)
		p[pos/8] ^= 1 << (pos % 8)
	}
	return n, err
}

func (ff *faultFile) writeDecision(n int) (int, error, bool) {
	d, ok := ff.in.match(OpWrite, ff.f.Name())
	if !ok {
		return 0, nil, false
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.err == nil {
		return 0, nil, false
	}
	if d.shortBy > 0 {
		k := n - d.shortBy
		if k < 0 {
			k = 0
		}
		return k, d.err, true
	}
	return 0, d.err, true
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if k, err, fail := ff.writeDecision(len(p)); fail {
		n := 0
		if k > 0 {
			n, _ = ff.f.Write(p[:k])
		}
		return n, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if k, err, fail := ff.writeDecision(len(p)); fail {
		n := 0
		if k > 0 {
			n, _ = ff.f.WriteAt(p[:k], off)
		}
		return n, err
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) Sync() error {
	if err := ff.in.apply(OpSync, ff.f.Name()); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// IsInjectable reports whether err is one of the injectable error
// classes (EIO, ENOSPC, or a short write) — used by harness assertions
// that every surfaced error is typed, never a raw panic string.
func IsInjectable(err error) bool {
	return errors.Is(err, EIO) || errors.Is(err, ENOSPC) || errors.Is(err, io.ErrShortWrite)
}
