package baseline

import (
	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/table"
)

// oramRows is a table of rows stored block-per-row in a Path ORAM.
type oramRows struct {
	o *oram.ORAM
	n int
}

const rowBlockSize = 8 + table.DataLen

func newORAMRows(sp *memory.Space, rows []table.Row, seed int64) *oramRows {
	n := len(rows)
	if n == 0 {
		n = 1 // ORAM needs at least one block; Len() still reports 0
	}
	r := &oramRows{o: oram.New(sp, n, rowBlockSize, seed), n: len(rows)}
	for i, row := range rows {
		r.set(i, row)
	}
	return r
}

func encodeRow(r table.Row) []byte {
	buf := make([]byte, rowBlockSize)
	for i := 0; i < 8; i++ {
		buf[i] = byte(r.J >> (8 * i))
	}
	copy(buf[8:], r.D[:])
	return buf
}

func decodeRow(b []byte) table.Row {
	var r table.Row
	for i := 0; i < 8; i++ {
		r.J |= uint64(b[i]) << (8 * i)
	}
	copy(r.D[:], b[8:])
	return r
}

func (r *oramRows) Len() int               { return r.n }
func (r *oramRows) At(i int) table.Row     { return decodeRow(r.o.Read(i)) }
func (r *oramRows) set(i int, v table.Row) { r.o.Write(i, encodeRow(v)) }

// Get/Set adapt oramRows to bitonic.Array[table.Row].
func (r *oramRows) Get(i int) table.Row    { return r.At(i) }
func (r *oramRows) Set(i int, v table.Row) { r.set(i, v) }

func lessRowJD(x, y table.Row) uint64 {
	ltJ := obliv.Less(x.J, y.J)
	eqJ := obliv.Eq(x.J, y.J)
	return obliv.Or(ltJ, obliv.And(eqJ, table.LessData(x.D, y.D)))
}

func condSwapRow(c uint64, x, y *table.Row) {
	obliv.CondSwap(c, &x.J, &y.J)
	table.CondSwapData(c, &x.D, &y.D)
}

// ORAMJoin runs the standard sort-merge join with every table access
// routed through Path ORAM: the generic way to make a non-oblivious
// algorithm oblivious (§3.3). The sort phase uses the bitonic network
// (so the comparison schedule is public) and the merge phase's
// data-dependent pointer movements are hidden by the ORAM — at an
// O(log n) physical-access blowup per logical access, with a large
// constant, which is exactly what Table 1 charges this approach.
func ORAMJoin(sp *memory.Space, rows1, rows2 []table.Row, seed int64) []table.Pair {
	t1 := newORAMRows(sp, rows1, seed)
	t2 := newORAMRows(sp, rows2, seed+1)
	bitonic.Sort[table.Row](t1, lessRowJD, condSwapRow, nil)
	bitonic.Sort[table.Row](t2, lessRowJD, condSwapRow, nil)
	return mergeScan(t1, t2, nil)
}
