package table

import (
	"sync"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/fault"
	"oblivjoin/internal/memory"
)

// fileBlocks keeps the sealed blocks in a temporary file instead of the
// heap, so an intermediate larger than the run's memory budget costs
// O(batch) heap and nothing but ciphertext and MACs ever touches disk.
// ReadAt/WriteAt run under the store's per-block mutexes, so parallel
// lanes over disjoint entry ranges compose.
type fileBlocks struct {
	fs   fault.FS
	f    fault.File
	unit int
	once sync.Once // guards file close+remove
}

func (fb *fileBlocks) span(k0, k1 int) ([]byte, *[]byte) {
	p, ct := getBuf((k1 - k0 + 1) * fb.unit)
	return ct, p
}

func (fb *fileBlocks) load(ct []byte, k int) error {
	_, err := fb.f.ReadAt(ct, int64(k)*int64(fb.unit))
	return ioErr("read", err)
}

func (fb *fileBlocks) persist(ct []byte, k int) error {
	_, err := fb.f.WriteAt(ct, int64(k)*int64(fb.unit))
	return ioErr("write", err)
}

func (fb *fileBlocks) close() {
	fb.once.Do(func() {
		fb.f.Close()
		fb.fs.Remove(fb.f.Name())
	})
}

func (fb *fileBlocks) heapBytes() int64 { return 0 }

// NewSpillFS allocates a sealed store of n null entries in s, sealed
// under c with b entries per block (b ≤ 0 selects DefaultSealedBlock),
// whose blocks live in a fresh temporary file in dir ("" selects the
// system temp directory) opened through fsys (nil selects the real OS;
// the fault-injection entry point). Close removes the file.
func NewSpillFS(s *memory.Space, c *crypto.Cipher, fsys fault.FS, dir string, n, b int) (*BlockEncrypted, error) {
	if b <= 0 {
		b = DefaultSealedBlock
	}
	fsys = fault.Or(fsys)
	f, err := fsys.CreateTemp(dir, "oblivspill-*.seal")
	if err != nil {
		return nil, err
	}
	return newSealed(s, c, n, b, &fileBlocks{fs: fsys, f: f, unit: crypto.SealedLen(b * EncodedSize)})
}

// Spiller allocates file-backed sealed stores for one run: one
// directory, one cipher, one block width, one gauge. The gauge's
// cleanup hooks delete each backing file when the store is released
// (or at run teardown).
type Spiller struct {
	space  *memory.Space
	cipher *crypto.Cipher
	fs     fault.FS
	dir    string
	block  int
	gauge  *Gauge
}

// NewSpillerFS returns a Spiller sealing blocks of b entries under c
// into dir through fsys; b, dir and fsys default as in NewSpillFS.
func NewSpillerFS(s *memory.Space, c *crypto.Cipher, fsys fault.FS, dir string, b int, g *Gauge) *Spiller {
	return &Spiller{space: s, cipher: c, fs: fsys, dir: dir, block: b, gauge: g}
}

// Alloc allocates an n-entry file-backed store, registering its cleanup
// with the spiller's gauge. Such stores keep only scratch on the heap,
// so the tracked heap footprint is zero; the on-disk bytes are recorded
// as spill statistics.
func (sp *Spiller) Alloc(n int) (Store, error) {
	st, err := NewSpillFS(sp.space, sp.cipher, sp.fs, sp.dir, n, sp.block)
	if err != nil {
		return nil, err
	}
	sp.gauge.Track(st, 0, st.Close)
	sp.gauge.Spilled(BlockFootprint(n, sp.block))
	return st, nil
}

// BudgetAlloc returns an Alloc that predicts each store's heap
// footprint with predict and diverts the allocation to sp when it
// would push the gauge's live bytes over budget — the automatic
// spill-selection policy of the memory-budgeted engine. A spill
// allocation failure (e.g. an unwritable spill directory) falls back
// to the in-memory store: the budget is a resource target, not a
// correctness property, and the failure is visible in the gauge's
// spill counters staying flat.
func BudgetAlloc(base Alloc, sp *Spiller, g *Gauge, budget int64, predict func(n int) int64) Alloc {
	return func(n int) Store {
		if g.Live()+predict(n) > budget {
			if st, err := sp.Alloc(n); err == nil {
				return st
			}
		}
		return base(n)
	}
}
