// Package table defines the database entries the oblivious join operates
// on, together with their constant-time comparators, fixed-width binary
// encoding, and storage: plain traced memory and the one sealed store,
// BlockEncrypted. What sealed memory
// owes the security argument — block boundaries a public function of
// the index, every write re-sealed under a fresh nonce, faults typed —
// is stated and held once, at BlockEncrypted.
//
// An Entry carries the attributes of §5 of the paper: the join attribute
// j, the data attribute d, the table identifier tid, the group dimensions
// α1 and α2 computed by Augment-Tables, the distribute destination f, the
// alignment index ii, and the null (∅) flag. All entries have the same
// public size, so reading or writing any entry is indistinguishable from
// reading or writing any other.
package table

import (
	"encoding/binary"
	"fmt"

	"oblivjoin/internal/obliv"
)

// DataLen is the fixed width of the data attribute in bytes. Real
// deployments would store a record identifier or a fixed-width projection
// here; what matters for obliviousness is only that the width is a public
// constant.
const DataLen = 16

// Data is the fixed-width data attribute payload.
type Data = [DataLen]byte

// Entry is one database row, augmented with the working attributes of
// the join algorithm. The zero value is a non-null entry with zeroed
// attributes.
type Entry struct {
	J    uint64 // join attribute value
	D    Data   // data attribute value
	TID  uint64 // originating table: 1 or 2
	A1   uint64 // α1: matching entries in T1 for this join value
	A2   uint64 // α2: matching entries in T2 for this join value
	F    uint64 // destination index for Oblivious-Distribute (1-based)
	II   uint64 // alignment index for Align-Table
	Null uint64 // 1 when the entry is ∅ (a dummy/discarded slot)
}

// EncodedSize is the public fixed width of one encoded entry in bytes.
const EncodedSize = 7*8 + DataLen

// Encode writes the entry into dst, which must be EncodedSize bytes.
func (e *Entry) Encode(dst []byte) {
	if len(dst) != EncodedSize {
		panic(fmt.Sprintf("table: Encode dst %d bytes, want %d", len(dst), EncodedSize))
	}
	binary.LittleEndian.PutUint64(dst[0:], e.J)
	copy(dst[8:8+DataLen], e.D[:])
	o := 8 + DataLen
	binary.LittleEndian.PutUint64(dst[o:], e.TID)
	binary.LittleEndian.PutUint64(dst[o+8:], e.A1)
	binary.LittleEndian.PutUint64(dst[o+16:], e.A2)
	binary.LittleEndian.PutUint64(dst[o+24:], e.F)
	binary.LittleEndian.PutUint64(dst[o+32:], e.II)
	binary.LittleEndian.PutUint64(dst[o+40:], e.Null)
}

// DecodeEntry parses an entry previously written by Encode.
func DecodeEntry(src []byte) Entry {
	if len(src) != EncodedSize {
		panic(fmt.Sprintf("table: DecodeEntry src %d bytes, want %d", len(src), EncodedSize))
	}
	var e Entry
	e.J = binary.LittleEndian.Uint64(src[0:])
	copy(e.D[:], src[8:8+DataLen])
	o := 8 + DataLen
	e.TID = binary.LittleEndian.Uint64(src[o:])
	e.A1 = binary.LittleEndian.Uint64(src[o+8:])
	e.A2 = binary.LittleEndian.Uint64(src[o+16:])
	e.F = binary.LittleEndian.Uint64(src[o+24:])
	e.II = binary.LittleEndian.Uint64(src[o+32:])
	e.Null = binary.LittleEndian.Uint64(src[o+40:])
	return e
}

// MakeData builds a Data payload from a string, padding with zeros. It
// returns an error if s exceeds DataLen bytes.
func MakeData(s string) (Data, error) {
	var d Data
	if len(s) > DataLen {
		return d, fmt.Errorf("table: data %q exceeds %d bytes", s, DataLen)
	}
	copy(d[:], s)
	return d, nil
}

// MustData is MakeData that panics on overflow; for tests and literals.
func MustData(s string) Data {
	d, err := MakeData(s)
	if err != nil {
		panic(err)
	}
	return d
}

// DataString trims trailing zero padding from a payload.
func DataString(d Data) string {
	n := len(d)
	for n > 0 && d[n-1] == 0 {
		n--
	}
	return string(d[:n])
}

// dataWords loads d as two big-endian words. Numeric order on ⟨hi, lo⟩
// is byte-lexicographic order on d — big-endian puts byte 0 in the most
// significant position, so the first differing byte decides both — which
// lets every Data comparison, swap and copy run on two words instead of
// DataLen bytes.
func dataWords(d *Data) (hi, lo uint64) {
	return binary.BigEndian.Uint64(d[:8]), binary.BigEndian.Uint64(d[8:])
}

func putDataWords(d *Data, hi, lo uint64) {
	binary.BigEndian.PutUint64(d[:8], hi)
	binary.BigEndian.PutUint64(d[8:], lo)
}

// The two-word view above is the whole payload only at this width.
var _ = [1]struct{}{}[DataLen-16]

// LessData reports, in constant time, whether a orders
// byte-lexicographically strictly before b (1) or not (0).
func LessData(a, b Data) uint64 {
	ah, al := dataWords(&a)
	bh, bl := dataWords(&b)
	return lexLess2(obliv.Less(ah, bh), obliv.Eq(ah, bh), obliv.Less(al, bl))
}

// EqData reports, in constant time, whether a and b are identical.
func EqData(a, b Data) uint64 {
	ah, al := dataWords(&a)
	bh, bl := dataWords(&b)
	return obliv.Eq((ah^bh)|(al^bl), 0)
}

// CondSwapData swaps a and b in constant time when c == 1. Both are
// always read and written.
func CondSwapData(c uint64, a, b *Data) {
	ah, al := dataWords(a)
	bh, bl := dataWords(b)
	obliv.CondSwap(c, &ah, &bh)
	obliv.CondSwap(c, &al, &bl)
	putDataWords(a, ah, al)
	putDataWords(b, bh, bl)
}

// CondCopyData copies src into dst when c == 1; dst is rewritten with
// its own value when c == 0.
func CondCopyData(c uint64, dst *Data, src Data) {
	dh, dl := dataWords(dst)
	sh, sl := dataWords(&src)
	putDataWords(dst, obliv.Select(c, sh, dh), obliv.Select(c, sl, dl))
}

// CondSwapEntry swaps x and y in constant time when c == 1. Every field
// of both entries is touched regardless of c.
func CondSwapEntry(c uint64, x, y *Entry) {
	obliv.CondSwap(c, &x.J, &y.J)
	CondSwapData(c, &x.D, &y.D)
	obliv.CondSwap(c, &x.TID, &y.TID)
	obliv.CondSwap(c, &x.A1, &y.A1)
	obliv.CondSwap(c, &x.A2, &y.A2)
	obliv.CondSwap(c, &x.F, &y.F)
	obliv.CondSwap(c, &x.II, &y.II)
	obliv.CondSwap(c, &x.Null, &y.Null)
}

// CondCopyEntry copies src into dst when c == 1; dst is rewritten with
// its own value when c == 0.
func CondCopyEntry(c uint64, dst *Entry, src *Entry) {
	obliv.CondCopy(c, &dst.J, src.J)
	CondCopyData(c, &dst.D, src.D)
	obliv.CondCopy(c, &dst.TID, src.TID)
	obliv.CondCopy(c, &dst.A1, src.A1)
	obliv.CondCopy(c, &dst.A2, src.A2)
	obliv.CondCopy(c, &dst.F, src.F)
	obliv.CondCopy(c, &dst.II, src.II)
	obliv.CondCopy(c, &dst.Null, src.Null)
}

// lexLess2 and lexLess3 chain strict-less/equal results, most
// significant key first, into a lexicographic strict-less, entirely
// branch-free: lt₁ ∨ (eq₁ ∧ lt₂) ∨ (eq₁ ∧ eq₂ ∧ lt₃).
func lexLess2(lt1, eq1, lt2 uint64) uint64 {
	return obliv.Or(lt1, obliv.And(eq1, lt2))
}

func lexLess3(lt1, eq1, lt2, eq2, lt3 uint64) uint64 {
	return obliv.Or(lt1, obliv.And(eq1, lexLess2(lt2, eq2, lt3)))
}

// LessJTID orders by ⟨j↑, tid↑⟩ — the first sort of Augment-Tables
// (Algorithm 2, line 3).
func LessJTID(x, y Entry) uint64 {
	return lexLess2(obliv.Less(x.J, y.J), obliv.Eq(x.J, y.J), obliv.Less(x.TID, y.TID))
}

// LessTIDJD orders by ⟨tid↑, j↑, d↑⟩ — the second sort of Augment-Tables
// (Algorithm 2, line 5), which separates the two tables again.
func LessTIDJD(x, y Entry) uint64 {
	return lexLess3(obliv.Less(x.TID, y.TID), obliv.Eq(x.TID, y.TID),
		obliv.Less(x.J, y.J), obliv.Eq(x.J, y.J), LessData(x.D, y.D))
}

// LessJD orders by ⟨j↑, d↑⟩ — the natural row order used by the
// relational operators (distinct, union, sorting output).
func LessJD(x, y Entry) uint64 {
	return lexLess2(obliv.Less(x.J, y.J), obliv.Eq(x.J, y.J), LessData(x.D, y.D))
}

// LessF orders by ⟨f↑⟩ — the sort inside Oblivious-Distribute
// (Algorithm 3, line 3).
func LessF(x, y Entry) uint64 {
	return obliv.Less(x.F, y.F)
}

// LessNullF orders by ⟨≠∅↑, f↑⟩ — the sort inside the extended
// distribute (Algorithm 4, line 26): non-null entries first, ordered by
// their destination index; ∅ entries last.
func LessNullF(x, y Entry) uint64 {
	return lexLess2(obliv.Less(x.Null, y.Null), obliv.Eq(x.Null, y.Null), obliv.Less(x.F, y.F))
}

// LessJII orders by ⟨j↑, ii↑⟩ — the alignment sort (Algorithm 5, line 8).
func LessJII(x, y Entry) uint64 {
	return lexLess2(obliv.Less(x.J, y.J), obliv.Eq(x.J, y.J), obliv.Less(x.II, y.II))
}

// Pair is one output row of the join: the data attributes of a matching
// pair of input entries.
type Pair struct {
	D1 Data
	D2 Data
}

// PairSize is the public width of an output pair.
const PairSize = 2 * DataLen

// KeyedPair is one output row of a keyed join: the shared join value
// and both data attributes. Keeping the key in the output is what makes
// multi-way joins composable (the intermediate result can be re-joined
// without re-deriving its key from the payload).
type KeyedPair struct {
	J  uint64
	D1 Data
	D2 Data
}

// LessKeyedPair orders keyed join output by ⟨j↑, d1↑, d2↑⟩ — the
// canonical row order of a multi-way join chain. Branch-free, so a
// sorting network over pairs stays data-oblivious.
func LessKeyedPair(x, y KeyedPair) uint64 {
	return lexLess3(obliv.Less(x.J, y.J), obliv.Eq(x.J, y.J),
		LessData(x.D1, y.D1), EqData(x.D1, y.D1), LessData(x.D2, y.D2))
}

// CondSwapKeyedPair swaps x and y in constant time when c == 1. Every
// field of both pairs is touched regardless of c.
func CondSwapKeyedPair(c uint64, x, y *KeyedPair) {
	obliv.CondSwap(c, &x.J, &y.J)
	CondSwapData(c, &x.D1, &y.D1)
	CondSwapData(c, &x.D2, &y.D2)
}

// Row is the external representation of an input row, used by loaders
// and the public API.
type Row struct {
	J uint64
	D Data
}

// RowSize is the fixed width of one Row under EncodeRows: the at-rest
// form of the sealed catalog and of WAL and snapshot row blocks.
const RowSize = 8 + DataLen

// EncodeRows lays rows out back to back, RowSize bytes each.
func EncodeRows(rows []Row) []byte {
	buf := make([]byte, len(rows)*RowSize)
	for i, r := range rows {
		o := i * RowSize
		binary.LittleEndian.PutUint64(buf[o:], r.J)
		copy(buf[o+8:o+RowSize], r.D[:])
	}
	return buf
}

// DecodeRows parses the first n rows EncodeRows wrote into buf.
func DecodeRows(buf []byte, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		o := i * RowSize
		rows[i].J = binary.LittleEndian.Uint64(buf[o:])
		copy(rows[i].D[:], buf[o+8:o+RowSize])
	}
	return rows
}

// Store is the storage abstraction the join algorithm reads and writes
// entries through. Implementations must make element size public and
// constant; *memory.Array[Entry] (plain) and *BlockEncrypted (sealed)
// both qualify. GetRange and SetRange move a contiguous run of entries
// with one dynamic dispatch, emitting exactly the events of the
// equivalent element loop in ascending index order; the hot paths
// (sorting rounds, the linear scans of internal/core) amortize their
// per-element overhead per block through them.
type Store interface {
	Len() int
	Get(i int) Entry
	Set(i int, e Entry)
	GetRange(lo int, dst []Entry)
	SetRange(lo int, src []Entry)
}

// RangeStore survives only because benchmarks/ names it; it goes with
// ROADMAP 'A benchmark-archetype PR'.
type RangeStore = Store
