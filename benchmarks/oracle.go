package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"oblivjoin"
	"oblivjoin/internal/table"
)

// This file is the output oracle: plain-Go reference results computed
// during set-up, and the fingerprints (row count + FNV-64) every timed
// result is checked against.

// fingerprint identifies a result as a multiset of rows: the row count
// and the wrapping sum of each row's FNV-64, so it does not depend on
// row order.
type fingerprint struct {
	rows int
	sum  uint64
}

func (f *fingerprint) add(cols ...string) {
	h := fnv.New64a()
	for _, c := range cols {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	f.rows++
	f.sum += h.Sum64()
}

// naiveJoin is the reference equi-join: a hash join in plain Go.
func naiveJoin(left, right []table.Row) fingerprint {
	byKey := make(map[uint64][]string, len(left))
	for _, l := range left {
		byKey[l.J] = append(byKey[l.J], table.DataString(l.D))
	}
	var f fingerprint
	for _, r := range right {
		rd := table.DataString(r.D)
		for _, ld := range byKey[r.J] {
			f.add(ld, rd)
		}
	}
	return f
}

// pairsFingerprint fingerprints a join result the way naiveJoin does.
func pairsFingerprint(pairs []oblivjoin.Pair) fingerprint {
	var f fingerprint
	for _, p := range pairs {
		f.add(p.Left, p.Right)
	}
	return f
}

// rowsFingerprint fingerprints stringified result rows.
func rowsFingerprint(rows [][]string) fingerprint {
	var f fingerprint
	for _, r := range rows {
		f.add(r...)
	}
	return f
}

func u64(v uint64) string { return strconv.FormatUint(v, 10) }

// rekeyEscape mirrors the payload escaping of a join chain's rekey
// stage: '\' and '+' are backslash-escaped.
func rekeyEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "+", `\+`)
}

// The ref* functions are the plain-Go reference of each query shape.
// Each returns the expected rows; ordered results are returned in
// order.

func refFilter(rows []table.Row, keep func(uint64) bool, withData bool) [][]string {
	var out [][]string
	for _, r := range rows {
		if keep(r.J) {
			row := []string{u64(r.J)}
			if withData {
				row = append(row, table.DataString(r.D))
			}
			out = append(out, row)
		}
	}
	return out
}

// refRange is filter + ORDER BY key + LIMIT over distinct keys.
func refRange(rows []table.Row, lo, hi uint64, limit int) [][]string {
	var kept []table.Row
	for _, r := range rows {
		if r.J >= lo && r.J <= hi {
			kept = append(kept, r)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].J < kept[j].J })
	if len(kept) > limit {
		kept = kept[:limit]
	}
	out := make([][]string, len(kept))
	for i, r := range kept {
		out[i] = []string{u64(r.J), table.DataString(r.D)}
	}
	return out
}

func refSemijoin(rows, sub []table.Row) [][]string {
	member := make(map[uint64]bool, len(sub))
	for _, s := range sub {
		member[s.J] = true
	}
	return refFilter(rows, func(k uint64) bool { return member[k] }, true)
}

// refJoin is key, left.data, right.data of l ⋈ r.
func refJoin(l, r []table.Row) [][]string {
	byKey := make(map[uint64][]table.Row, len(l))
	for _, x := range l {
		byKey[x.J] = append(byKey[x.J], x)
	}
	var out [][]string
	for _, y := range r {
		for _, x := range byKey[y.J] {
			out = append(out, []string{u64(y.J), table.DataString(x.D), table.DataString(y.D)})
		}
	}
	return out
}

// refJoinCount is key, COUNT(*) of l ⋈ r grouped by key.
func refJoinCount(l, r []table.Row) [][]string {
	counts := map[uint64]uint64{}
	for _, row := range refJoin(l, r) {
		k, _ := strconv.ParseUint(row[0], 10, 64)
		counts[k]++
	}
	out := make([][]string, 0, len(counts))
	for k, c := range counts {
		out = append(out, []string{u64(k), u64(c)})
	}
	return out
}

// refChain3 is key, left.data, right.data of (a ⋈ b) ⋈ c, where the
// left payload of the second join is the escaped concatenation the
// rekey stage builds.
func refChain3(a, b, c []table.Row) [][]string {
	var ab []table.Row
	for _, row := range refJoin(a, b) {
		k, _ := strconv.ParseUint(row[0], 10, 64)
		ab = append(ab, table.Row{J: k, D: table.MustData(rekeyEscape(row[1]) + "+" + rekeyEscape(row[2]))})
	}
	return refJoin(ab, c)
}

// refDistinct is DISTINCT over whole (key, data) rows.
func refDistinct(rows []table.Row) [][]string {
	seen := map[table.Row]bool{}
	var out [][]string
	for _, r := range rows {
		if !seen[r] {
			seen[r] = true
			out = append(out, []string{u64(r.J), table.DataString(r.D)})
		}
	}
	return out
}

// sameRows compares got against want: exactly when ordered, as
// multisets otherwise.
func sameRows(got, want [][]string, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	if ordered {
		for i := range got {
			if strings.Join(got[i], "\x00") != strings.Join(want[i], "\x00") {
				return fmt.Errorf("row %d is %q, reference has %q", i, got[i], want[i])
			}
		}
		return nil
	}
	if g, w := rowsFingerprint(got), rowsFingerprint(want); g != w {
		return fmt.Errorf("row multiset differs from reference (fingerprint %x vs %x)", g.sum, w.sum)
	}
	return nil
}

// bodyPrefix returns the part of a /query response body that precedes
// the closing brace or the stats object: the columns and rows, whose
// bytes are a function of the result alone.
func bodyPrefix(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(",\n  \"stats\": {")); i >= 0 {
		return body[:i]
	}
	return bytes.TrimSuffix(body, []byte("\n}\n"))
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
