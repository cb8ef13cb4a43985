// Package oblivjoin is a data-oblivious database equi-join library, a Go
// implementation of "Efficient Oblivious Database Joins" (Krastnikov,
// Kerschbaum, Stebila; VLDB 2020).
//
// The primary operator, Join with AlgorithmOblivious, computes the
// binary equi-join of two tables in O(n log² n + m log m) time such that
// the sequence of public-memory accesses depends only on the input sizes
// n1, n2 and the output size m — never on the table contents. It uses no
// ORAM and only a constant-size protected working set, making it
// suitable for hardware-enclave, secure-multiparty and FHE settings.
//
// Quick start:
//
//	left := oblivjoin.NewTable()
//	left.MustAppend(42, "alice")
//	right := oblivjoin.NewTable()
//	right.MustAppend(42, "order-17")
//	res, err := oblivjoin.Join(left, right, nil)
//	// res.Pairs == [{alice order-17}]
//
// The baseline algorithms of the paper's Table 1 (insecure sort-merge,
// oblivious nested-loop, Opaque-style primary–foreign-key, ORAM-backed
// sort-merge) are available through the same entry point for comparison,
// and Options exposes the paper's instrumentation: per-phase statistics,
// access-trace hashing for empirical obliviousness verification, and an
// SGX-like enclave cost simulation.
package oblivjoin

import (
	"errors"
	"fmt"
	"time"

	"oblivjoin/internal/baseline"
	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// MaxDataLen is the fixed width of a row's data payload in bytes.
// Payloads are padded with zeros to this width; storing fixed-width
// entries is what makes every entry access indistinguishable from every
// other.
const MaxDataLen = table.DataLen

// ErrDataTooLong is returned by Table.Append for payloads over MaxDataLen.
var ErrDataTooLong = errors.New("oblivjoin: data exceeds MaxDataLen bytes")

// ErrNotPrimaryKey is returned when AlgorithmOpaque is used with a left
// table that has duplicate keys.
var ErrNotPrimaryKey = baseline.ErrNotPrimaryKey

// Table is an input table under construction: an unordered bag of
// (key, data) rows.
type Table struct {
	rows []table.Row
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Append adds a row. The data payload must fit MaxDataLen bytes.
func (t *Table) Append(key uint64, data string) error {
	d, err := table.MakeData(data)
	if err != nil {
		return fmt.Errorf("%w: %q", ErrDataTooLong, data)
	}
	t.rows = append(t.rows, table.Row{J: key, D: d})
	return nil
}

// MustAppend is Append that panics on overflow; convenient in examples
// and tests.
func (t *Table) MustAppend(key uint64, data string) {
	if err := t.Append(key, data); err != nil {
		panic(err)
	}
}

// AppendRow adds a row with an already-encoded payload.
func (t *Table) AppendRow(key uint64, data [MaxDataLen]byte) {
	t.rows = append(t.rows, table.Row{J: key, D: data})
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows exposes the raw rows; used by the benchmark harness.
func (t *Table) Rows() []table.Row { return t.rows }

// FromRows wraps pre-built rows (no copy).
func FromRows(rows []table.Row) *Table { return &Table{rows: rows} }

// Algorithm selects which join implementation runs.
type Algorithm int

const (
	// AlgorithmOblivious is the paper's join — the default.
	AlgorithmOblivious Algorithm = iota
	// AlgorithmSortMerge is the standard insecure sort-merge join
	// (Table 1 row 1, Figure 8's baseline curve).
	AlgorithmSortMerge
	// AlgorithmNestedLoop is the trivial oblivious O(n1·n2 log²) join.
	AlgorithmNestedLoop
	// AlgorithmOpaque is the Opaque/ObliDB oblivious sort-merge join,
	// restricted to primary–foreign-key inputs.
	AlgorithmOpaque
	// AlgorithmORAM is the standard sort-merge join run over Path
	// ORAM-backed storage.
	AlgorithmORAM
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmOblivious:
		return "oblivious"
	case AlgorithmSortMerge:
		return "sort-merge"
	case AlgorithmNestedLoop:
		return "nested-loop"
	case AlgorithmOpaque:
		return "opaque"
	case AlgorithmORAM:
		return "oram"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a join. The zero value (and nil) runs the oblivious
// join with deterministic routing, bitonic sorts, plain storage and no
// instrumentation.
type Options struct {
	// Algorithm selects the implementation.
	Algorithm Algorithm
	// Probabilistic switches Oblivious-Distribute to the PRP variant.
	Probabilistic bool
	// Seed feeds the probabilistic distribute and the ORAM baseline.
	Seed int64
	// MergeExchange uses Batcher's merge-exchange network instead of the
	// bitonic sorter.
	MergeExchange bool
	// Encrypted stores all table entries AES-sealed in public memory,
	// 16 entries per ciphertext block, re-encrypted on every write. The
	// recorded trace is identical to the plain store's.
	Encrypted bool
	// CollectStats fills Result.Stats.
	CollectStats bool
	// TraceHash computes the SHA-256 access-pattern hash of the run
	// (the §6.1 construction) into Result.TraceHash.
	TraceHash bool
	// SGXSim charges every public-memory access to an SGX-like cost
	// model (93 MiB EPC, page-fault penalties) and reports the simulated
	// time in Result.SimulatedTime.
	SGXSim bool
	// EPCBytes overrides the simulated Enclave Page Cache capacity when
	// SGXSim is set (0 keeps the default 93 MiB). Shrinking it lets
	// small experiments reproduce the paging bend of Figure 8.
	EPCBytes int64
	// Parallel fans the sorting networks, the routing network and the
	// linear scans out across a persistent worker pool (the paper's
	// §6.2 parallelization note: sorting networks have O(log² n)
	// depth). Every phase executes the same round schedule as the
	// sequential run, and instrumentation is sharded per worker and
	// merged deterministically at round barriers, so Parallel composes
	// with TraceHash (identical canonical hash), CollectStats
	// (identical counts) and MergeExchange. Under SGXSim the enclave
	// cost model's paging state is order-dependent, so the stores
	// refuse to shard and execution degrades to the sequential
	// schedule — same trace, no speedup.
	Parallel bool
	// Workers pins the exact parallelism degree: > 1 lanes, 1
	// sequential, 0 defers to Parallel (GOMAXPROCS when set, else
	// sequential), < 0 forces GOMAXPROCS.
	Workers int
}

// Stats is the per-run instrumentation of Result.
type Stats struct {
	N1, N2, M int
	// SortComparisons counts compare–exchange operations across all
	// sorting-network invocations.
	SortComparisons uint64
	// RouteOps counts the hop steps of the routing network.
	RouteOps uint64
	// Phases breaks elapsed wall time down by algorithm phase.
	Phases map[string]time.Duration
	// Accesses and Faults are filled when SGXSim is on.
	Accesses uint64
	Faults   uint64
}

// Pair is one output row: the data payloads of a matching pair.
type Pair struct {
	Left  string
	Right string
}

// Result is a completed join.
type Result struct {
	// Pairs holds the joined rows. Its length m is public: the algorithm
	// reveals the output size by design rather than padding to n1·n2.
	Pairs []Pair
	// Stats is populated when Options.CollectStats is set.
	Stats *Stats
	// TraceHash is the access-pattern digest when Options.TraceHash is
	// set: equal inputs sizes (n1, n2, m) ⇒ equal hashes.
	TraceHash string
	// SimulatedTime is the enclave cost model's elapsed time when
	// Options.SGXSim is set.
	SimulatedTime time.Duration
}

// Join computes the equi-join of left and right under opts. Caller
// errors — nil tables, an unknown algorithm — return typed errors,
// never panic; a sealed store failing authentication mid-join
// surfaces as an error wrapping ErrSealedAuth.
func Join(left, right *Table, opts *Options) (retRes *Result, retErr error) {
	if left == nil || right == nil {
		return nil, ErrNilTable
	}
	if opts == nil {
		opts = &Options{}
	}
	// The oblivious hot path reports integrity faults by panicking with
	// a typed *table.Fault (store accessors return no error by design —
	// see internal/table). Contain it here, at the public boundary, the
	// same way query.Run does for the SQL path.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ferr, ok := table.AsFault(r); ok {
			retRes, retErr = nil, fmt.Errorf("oblivjoin: storage fault: %w", ferr)
			return
		}
		panic(r)
	}()
	var rec trace.Recorder
	var hasher *trace.Hasher
	if opts.TraceHash {
		hasher = trace.NewHasher()
		rec = hasher
	}
	var cost *memory.CostModel
	if opts.SGXSim {
		cost = memory.DefaultSGX()
		if opts.EPCBytes > 0 {
			cost.EPCBytes = opts.EPCBytes
		}
	}
	sp := memory.NewSpace(rec, cost)

	res := &Result{}
	var pairs []table.Pair
	var coreStats core.Stats
	var err error

	switch opts.Algorithm {
	case AlgorithmOblivious:
		alloc := table.PlainAlloc(sp)
		if opts.Encrypted {
			cipher, _, cerr := crypto.NewRandom()
			if cerr != nil {
				return nil, fmt.Errorf("oblivjoin: init cipher: %w", cerr)
			}
			alloc = table.BlockEncryptedAlloc(sp, cipher, table.DefaultSealedBlock)
		}
		cfg := &core.Config{
			Alloc:         alloc,
			Probabilistic: opts.Probabilistic,
			Seed:          opts.Seed,
			Stats:         &coreStats,
			Parallel:      opts.Parallel,
			Workers:       opts.Workers,
		}
		if opts.MergeExchange {
			cfg.Net = core.MergeExchange
		}
		pairs = core.Join(cfg, left.rows, right.rows)
	case AlgorithmSortMerge:
		pairs = baseline.SortMergeJoin(sp, left.rows, right.rows)
	case AlgorithmNestedLoop:
		pairs = baseline.NestedLoopJoin(sp, left.rows, right.rows)
	case AlgorithmOpaque:
		pairs, err = baseline.OpaqueJoin(sp, left.rows, right.rows)
		if err != nil {
			return nil, err
		}
	case AlgorithmORAM:
		pairs = baseline.ORAMJoin(sp, left.rows, right.rows, opts.Seed)
	default:
		return nil, fmt.Errorf("oblivjoin: unknown algorithm %v", opts.Algorithm)
	}

	res.Pairs = make([]Pair, len(pairs))
	for i, p := range pairs {
		res.Pairs[i] = Pair{Left: table.DataString(p.D1), Right: table.DataString(p.D2)}
	}
	if opts.CollectStats {
		st := &Stats{
			N1: left.Len(), N2: right.Len(), M: len(pairs),
			SortComparisons: coreStats.AugmentSort.CompareExchanges +
				coreStats.DistributeSort.CompareExchanges +
				coreStats.AlignSort.CompareExchanges,
			RouteOps: coreStats.RouteOps,
			Phases: map[string]time.Duration{
				"augment":          coreStats.TAugment,
				"distribute-sort":  coreStats.TDistSort,
				"distribute-route": coreStats.TDistRoute,
				"expand-scan":      coreStats.TExpandScan,
				"align":            coreStats.TAlign,
				"zip":              coreStats.TZip,
			},
		}
		if cost != nil {
			st.Accesses = cost.Accesses
			st.Faults = cost.Faults
		}
		res.Stats = st
	}
	if hasher != nil {
		res.TraceHash = hasher.Hex()
	}
	if cost != nil {
		res.SimulatedTime = cost.Elapsed
	}
	return res, nil
}

// OutputSize computes only the join's output cardinality m, obliviously,
// without materializing the result (the first stage of the paper's §3.4
// two-circuit decomposition).
func OutputSize(left, right *Table) int {
	if left == nil || right == nil {
		return 0 // a nil side joins like an empty one
	}
	sp := memory.NewSpace(nil, nil)
	return core.OutputSize(&core.Config{Alloc: table.PlainAlloc(sp)}, left.rows, right.rows)
}
