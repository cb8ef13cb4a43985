package exec

import (
	"fmt"
	"strings"

	"oblivjoin/internal/table"
)

// This file is the byte-identity machinery of join reordering: the
// escape codec that makes accumulated rekey payloads unambiguously
// splittable, and the Restore operator that maps a reordered join
// chain's output back onto the written-order payload layout and
// canonically sorts it. A plan that reorders joins ends with a Restore
// stage; the written-order chain followed by the identity Restore
// (canonical sort only) produces identical bytes for every input —
// including inputs with duplicate rows, where the raw chain output
// orders differ structurally between join orders.

// rekeyEscape is the escape character of the accumulated-payload
// encoding: a raw payload's '\' becomes `\\` and its '+' becomes `\+`,
// so RekeySep occurrences in the accumulation always separate segments.
// Payloads free of both characters are encoded as themselves.
const rekeyEscape = '\\'

// encodeSegment escapes a raw payload for inclusion in an accumulated
// rekey payload. The common case (no separator or escape byte in the
// payload) returns s unchanged.
func encodeSegment(s string) string {
	if !strings.ContainsAny(s, RekeySep+string(rekeyEscape)) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		if s[i] == rekeyEscape || s[i] == RekeySep[0] {
			b.WriteByte(rekeyEscape)
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// decodeSegment reverses encodeSegment.
func decodeSegment(s string) string {
	if !strings.ContainsRune(s, rekeyEscape) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == rekeyEscape && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// splitEncoded splits an accumulated payload at its unescaped
// separators. The returned segments are still encoded.
func splitEncoded(s string) []string {
	var segs []string
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case rekeyEscape:
			i++ // the escaped byte is payload, not a separator
		case RekeySep[0]:
			segs = append(segs, s[start:i])
			start = i + 1
		}
	}
	return append(segs, s[start:])
}

// rekeyJoin builds one accumulated payload from an already-encoded
// left accumulation and a raw right payload, reporting the shared
// width-overflow error when the result exceeds the public payload
// width.
func rekeyJoin(d1Encoded, d2Raw string) (table.Data, error) {
	joined := d1Encoded + RekeySep + encodeSegment(d2Raw)
	d, err := table.MakeData(joined)
	if err != nil {
		return d, fmt.Errorf(
			"query: intermediate join payload %q exceeds %d bytes; project fewer columns or shorten payloads",
			joined, table.DataLen)
	}
	return d, nil
}

// isIdentityPerm reports whether perm maps every slot to itself.
func isIdentityPerm(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// Restore finalizes a multi-way join chain the planner reordered: it
// rewrites each output pair's payload segments into the written-order
// layout and sorts the relation into the canonical ⟨j, d1, d2⟩ order
// through the run's configured sorting network.
//
// Perm maps written table slots onto execution slots: the chain joins
// k+1 tables, execution-order slot vector = the k−1 accumulated
// segments of D1 followed by D2, and the restored pair takes segment
// Perm[w] for written slot w. An identity Perm (the written-order
// plan) skips the rewrite and only canonicalizes — which is what makes
// reordered and written plans byte-identical: both end in the same
// sort, and a sorted sequence is a pure function of the row multiset,
// which join order does not change.
//
// The canonical sort's comparator count C(m) is part of the planner's
// modeled cost, and its access pattern is a fixed function of the
// (public) output size m.
type Restore struct{ Perm []int }

// Name implements Operator.
func (r Restore) Name() string {
	if isIdentityPerm(r.Perm) {
		return "canonicalize(j,d1,d2)"
	}
	return fmt.Sprintf("restore%v → canonicalize(j,d1,d2)", r.Perm)
}

// Run implements Whole.
func (r Restore) Run(ctx *Context, in Relation) (Relation, error) {
	out := make([]table.KeyedPair, len(in.Pairs))
	if isIdentityPerm(r.Perm) {
		copy(out, in.Pairs)
	} else {
		k := len(r.Perm) // table slots in the chain
		written := make([]string, k)
		for i, p := range in.Pairs {
			if i%probeEvery == 0 {
				probe(ctx)
			}
			execSegs := splitEncoded(table.DataString(p.D1))
			if len(execSegs) != k-1 {
				return Relation{}, fmt.Errorf(
					"query: restore: pair %d carries %d payload segments, want %d: %q",
					i, len(execSegs), k-1, table.DataString(p.D1))
			}
			execSegs = append(execSegs, encodeSegment(table.DataString(p.D2)))
			for w, e := range r.Perm {
				written[w] = execSegs[e]
			}
			// The written-order pair: D1 re-accumulates all but the last
			// written table (still encoded), D2 is that last table's raw
			// payload.
			d1, err := table.MakeData(strings.Join(written[:k-1], RekeySep))
			if err != nil {
				return Relation{}, fmt.Errorf(
					"query: intermediate join payload %q exceeds %d bytes; project fewer columns or shorten payloads",
					strings.Join(written[:k-1], RekeySep), table.DataLen)
			}
			d2, err := table.MakeData(decodeSegment(written[k-1]))
			if err != nil {
				return Relation{}, fmt.Errorf("query: restore: %w", err)
			}
			out[i] = table.KeyedPair{J: p.J, D1: d1, D2: d2}
		}
	}
	ctx.Cfg.SortPairs(out, table.LessKeyedPair, ctx.Cfg.RelationalSortStats())
	return Relation{Kind: KindPairs, Pairs: out}, nil
}
