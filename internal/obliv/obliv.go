// Package obliv provides constant-time, branch-free primitives on which the
// oblivious join algorithm is built.
//
// Every data-dependent decision made anywhere in this repository is funneled
// through this package so that the instruction trace of the algorithm is
// independent of the data operated on (level-III obliviousness in the
// terminology of Krastnikov et al., §3.2). None of the exported functions
// contain a branch on their secret arguments: selection is performed with
// arithmetic masks, exactly as a compiler targeting a circuit would emit.
//
// The functions take and return plain Go integers. Callers are responsible
// for ensuring that the "condition" arguments are already normalized to
// 0 or 1; the helpers in this package that produce conditions (Less, Eq,
// and friends) always return normalized values.
//
// Secret means entry contents and everything computed from them — in
// particular every 0/1 word Less or Eq returns, which may feed only
// Select, CondSwap, CondCopy and arithmetic, never a branch, an index or
// a loop bound. Public values may be branched on freely: the input
// length and what is a pure function of it, such as a sorting network's
// comparator schedule and each segment's direction (bitonic.Segment.Dir).
// Every input of that length takes the same branch, so it reveals
// nothing.
//
// Everything here works on 64-bit words. Fixed-width byte payloads are
// compared, swapped and copied by their owner as big-endian words
// (table.LessData and friends): big-endian puts byte 0 in the most
// significant position, so the first differing byte decides the numeric
// order of the words exactly as it decides the byte-lexicographic order
// of the payload, and no per-byte loop is needed.
package obliv

// Bool converts a Go bool to a 0/1 word without branching on the result's
// use sites. The compiler emits a SETcc-style instruction for this
// conversion on all supported architectures; no conditional jump is
// involved.
func Bool(b bool) uint64 {
	// This compiles to a flag materialization, not a branch.
	var x uint64
	if b {
		x = 1
	}
	return x
}

// mask expands a 0/1 condition into a full-width mask: 0 → 0x0000…,
// 1 → 0xffff….
func mask(c uint64) uint64 {
	return -c
}

// Select returns a if c == 1 and b if c == 0, in constant time.
func Select(c, a, b uint64) uint64 {
	m := mask(c)
	return (a & m) | (b &^ m)
}

// CondSwap swaps *a and *b when c == 1, in constant time. Both words are
// always read and written, so the memory trace is identical whether or not
// the swap takes place.
func CondSwap(c uint64, a, b *uint64) {
	m := mask(c)
	t := (*a ^ *b) & m
	*a ^= t
	*b ^= t
}

// CondCopy copies src into dst when c == 1 and rewrites dst with its own
// value when c == 0. dst is always written.
func CondCopy(c uint64, dst *uint64, src uint64) {
	*dst = Select(c, src, *dst)
}

// Eq returns 1 if a == b, else 0, without branching.
func Eq(a, b uint64) uint64 {
	x := a ^ b
	// x == 0 iff a == b. Fold x into its sign bit.
	return 1 &^ ((x | -x) >> 63)
}

// Neq returns 1 if a != b, else 0.
func Neq(a, b uint64) uint64 {
	return Eq(a, b) ^ 1
}

// Less returns 1 if a < b (unsigned), else 0, without branching.
func Less(a, b uint64) uint64 {
	// Standard borrow extraction: the borrow bit of a-b.
	return ((^a & b) | ((^(a ^ b)) & (a - b))) >> 63
}

// LessEq returns 1 if a <= b (unsigned).
func LessEq(a, b uint64) uint64 {
	return Less(b, a) ^ 1
}

// Greater returns 1 if a > b (unsigned).
func Greater(a, b uint64) uint64 {
	return Less(b, a)
}

// GreaterEq returns 1 if a >= b (unsigned).
func GreaterEq(a, b uint64) uint64 {
	return Less(a, b) ^ 1
}

// And returns the logical AND of two 0/1 conditions.
func And(a, b uint64) uint64 { return a & b }

// Or returns the logical OR of two 0/1 conditions.
func Or(a, b uint64) uint64 { return a | b }

// Not returns the logical negation of a 0/1 condition.
func Not(a uint64) uint64 { return a ^ 1 }
