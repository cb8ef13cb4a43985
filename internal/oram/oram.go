// Package oram implements Path ORAM (Stefanov et al., CCS 2013), the
// generic oblivious-memory primitive the paper positions its algorithm
// against (§3.3).
//
// A Path ORAM stores N fixed-size blocks in a binary tree of buckets
// kept in public (traced) memory. Each logical access re-randomizes the
// accessed block's leaf assignment, reads one full root-to-leaf path
// into a client-side stash, and writes the path back greedily. The
// public trace of an access is one path read plus one path write —
// independent of which logical block was accessed — at the price of an
// O(log N) blowup per access plus a position map and stash in client
// memory (making ORAM-based programs level-I oblivious at best, which is
// exactly the paper's criticism).
//
// The repository uses this package for the ORAM-backed sort-merge join
// baseline of Table 1.
package oram

import (
	"fmt"
	"math/bits"
	"math/rand"

	"oblivjoin/internal/memory"
)

// Z is the bucket capacity used throughout (the standard Path ORAM
// parameter; Z = 4 gives negligible stash overflow probability).
const Z = 4

const emptyAddr = -1

// slotted is one block slot inside a bucket: a logical address tag and
// the payload. Addr == emptyAddr marks a dummy.
type slotted struct {
	Addr int64
	Data []byte
}

// ORAM is a Path ORAM over n fixed-size blocks. It is not safe for
// concurrent use.
type ORAM struct {
	n         int
	blockSize int
	levels    int // tree depth; leaves = 1 << levels
	leaves    int

	tree  *memory.Array[slotted] // public memory: buckets in heap order
	pos   []int                  // client memory: block → leaf
	stash map[int64][]byte       // client memory
	rng   *rand.Rand

	// Accesses counts logical accesses; the tree's traced space counts
	// physical ones.
	Accesses uint64
}

// New creates a Path ORAM for n blocks of blockSize bytes, with its tree
// allocated from sp and leaf randomness drawn from seed.
func New(sp *memory.Space, n, blockSize int, seed int64) *ORAM {
	if n <= 0 {
		panic("oram: n must be positive")
	}
	levels := bits.Len(uint(n - 1)) // leaves = 2^levels ≥ n
	if levels < 1 {
		levels = 1
	}
	leaves := 1 << levels
	buckets := 2*leaves - 1
	o := &ORAM{
		n:         n,
		blockSize: blockSize,
		levels:    levels,
		leaves:    leaves,
		tree:      memory.Alloc[slotted](sp, buckets*Z, blockSize+8),
		pos:       make([]int, n),
		stash:     make(map[int64][]byte),
		rng:       rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < buckets*Z; i++ {
		o.tree.Set(i, slotted{Addr: emptyAddr})
	}
	for i := range o.pos {
		o.pos[i] = o.rng.Intn(leaves)
	}
	return o
}

// Len returns the number of logical blocks.
func (o *ORAM) Len() int { return o.n }

// StashSize returns the current number of blocks parked in the stash;
// exposed for the stash-growth experiments.
func (o *ORAM) StashSize() int { return len(o.stash) }

// bucketIndex returns the heap index of the depth-d ancestor bucket of
// leaf x (d = 0 is the root, d = levels is the leaf bucket).
func (o *ORAM) bucketIndex(x, d int) int {
	// Heap numbering: leaf node index is (leaves-1)+x; the depth-d
	// ancestor is found by walking up levels-d times.
	node := o.leaves - 1 + x
	for i := 0; i < o.levels-d; i++ {
		node = (node - 1) / 2
	}
	return node
}

// Read returns the current contents of block addr.
func (o *ORAM) Read(addr int) []byte {
	return o.access(addr, nil)
}

// Write replaces the contents of block addr with data (copied), which
// must be exactly BlockSize bytes.
func (o *ORAM) Write(addr int, data []byte) {
	if len(data) != o.blockSize {
		panic(fmt.Sprintf("oram: Write of %d bytes, block size %d", len(data), o.blockSize))
	}
	o.access(addr, data)
}

// access implements the Path ORAM access procedure: remap, read path
// into stash, serve the request, write path back greedily.
func (o *ORAM) access(addr int, write []byte) []byte {
	if addr < 0 || addr >= o.n {
		panic(fmt.Sprintf("oram: address %d out of range [0,%d)", addr, o.n))
	}
	o.Accesses++
	x := o.pos[addr]
	o.pos[addr] = o.rng.Intn(o.leaves)

	// Read the whole path into the stash.
	for d := 0; d <= o.levels; d++ {
		base := o.bucketIndex(x, d) * Z
		for s := 0; s < Z; s++ {
			blk := o.tree.Get(base + s)
			if blk.Addr != emptyAddr {
				o.stash[blk.Addr] = blk.Data
			}
		}
	}

	data, ok := o.stash[int64(addr)]
	if !ok {
		data = make([]byte, o.blockSize) // first touch: zero block
	}
	if write != nil {
		data = append([]byte(nil), write...)
	}
	o.stash[int64(addr)] = data
	out := append([]byte(nil), data...)

	// Write the path back bottom-up, greedily evicting stash blocks
	// whose (new) paths intersect the accessed path at this depth.
	for d := o.levels; d >= 0; d-- {
		bucket := o.bucketIndex(x, d)
		placed := 0
		var chosen []int64
		for a, blockData := range o.stash {
			if placed == Z {
				break
			}
			if o.bucketIndex(o.pos[a], d) == bucket {
				base := bucket*Z + placed
				o.tree.Set(base, slotted{Addr: a, Data: blockData})
				chosen = append(chosen, a)
				placed++
			}
		}
		for _, a := range chosen {
			delete(o.stash, a)
		}
		for s := placed; s < Z; s++ {
			o.tree.Set(bucket*Z+s, slotted{Addr: emptyAddr})
		}
	}
	return out
}
