package query

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oblivjoin/internal/table"
)

// This file cross-checks the oblivious engine against a deliberately
// naive in-memory reference executor: plain Go loops and maps, no
// oblivious machinery, evaluating the same Query AST. Row order is
// compared as a multiset (the engine's order is deterministic but
// stage-dependent); ORDER BY and GROUP BY orderings are asserted
// separately.

// refEval evaluates a predicate on a key, the plain-control-flow way.
func refEval(e Expr, k uint64) bool {
	switch v := e.(type) {
	case Cmp:
		switch v.Op {
		case "=":
			return k == v.Lit
		case "!=":
			return k != v.Lit
		case "<":
			return k < v.Lit
		case "<=":
			return k <= v.Lit
		case ">":
			return k > v.Lit
		default:
			return k >= v.Lit
		}
	case Between:
		return k >= v.Lo && k <= v.Hi
	case Not:
		return !refEval(v.E, k)
	case And:
		return refEval(v.L, k) && refEval(v.R, k)
	case Or:
		return refEval(v.L, k) || refEval(v.R, k)
	default:
		panic(fmt.Sprintf("refEval: %T", e))
	}
}

// refRow is a materialized reference row: key plus one payload per
// joined stage (len 1 without joins, 2 after one join, …). Payloads of
// a chain collapse left-to-right with the engine's rekey separator.
type refRow struct {
	k     uint64
	left  string // concatenated left payload
	right string // last joined payload ("" before any join)
}

// refEncode mirrors the rekey payload escape encoding independently of
// the engine: '\' → `\\`, '+' → `\+`.
func refEncode(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '+' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// refQuery evaluates q naively. It returns the output rows as strings
// (matching the engine's stringification) without LIMIT applied —
// callers compare multisets.
func refQuery(tables map[string][]table.Row, q *Query) ([][]string, error) {
	base := tables[q.From]

	// WHERE: semijoins then predicate, mirroring the planner's split.
	var rows []refRow
	for _, r := range base {
		rows = append(rows, refRow{k: r.J, left: table.DataString(r.D)})
	}
	var preds []Expr
	for _, c := range conjuncts(q.Where) {
		if in, ok := c.(In); ok {
			member := map[uint64]bool{}
			for _, s := range tables[in.Table] {
				member[s.J] = true
			}
			var kept []refRow
			for _, r := range rows {
				if member[r.k] {
					kept = append(kept, r)
				}
			}
			rows = kept
			continue
		}
		preds = append(preds, c)
	}
	if len(preds) > 0 {
		pred := andAll(preds)
		var kept []refRow
		for _, r := range rows {
			if refEval(pred, r.k) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// Join chain: nested loops, collapsing payloads like exec.Rekey —
	// including its escape encoding: the first accumulation escapes the
	// raw left payload, every accumulation escapes the incoming right
	// payload, and later accumulations extend the already-encoded left.
	joined := false
	for ji, t := range q.Joins {
		var out []refRow
		for _, l := range rows {
			payload := l.left
			if joined {
				left := l.left
				if ji == 1 {
					left = refEncode(left)
				}
				payload = left + "+" + refEncode(l.right)
			}
			for _, r := range tables[t] {
				if l.k == r.J {
					out = append(out, refRow{k: l.k, left: payload, right: table.DataString(r.D)})
				}
			}
		}
		rows = out
		joined = true
	}

	items := expandStar(q)
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }

	if q.GroupBy {
		// Sums are exact: they accumulate in math/big and never wrap.
		type agg struct {
			count, min, max uint64
			sum, sumL, sumR big.Int
			seen            bool
		}
		add := func(sum *big.Int, payload string) uint64 {
			v, _ := strconv.ParseUint(payload, 10, 64)
			sum.Add(sum, new(big.Int).SetUint64(v))
			return v
		}
		groups := map[uint64]*agg{}
		var keys []uint64
		for _, r := range rows {
			g, ok := groups[r.k]
			if !ok {
				g = &agg{}
				groups[r.k] = g
				keys = append(keys, r.k)
			}
			g.count++
			if joined {
				add(&g.sumL, r.left)
				add(&g.sumR, r.right)
			} else {
				v := add(&g.sum, r.left)
				if !g.seen || v < g.min {
					g.min = v
				}
				if !g.seen || v > g.max {
					g.max = v
				}
				g.seen = true
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var out [][]string
		for _, k := range keys {
			g := groups[k]
			var row []string
			for _, it := range items {
				switch {
				case it.Agg == AggCount:
					row = append(row, u(g.count))
				case it.Agg == AggSum && it.Col == ColLeftData:
					row = append(row, g.sumL.String())
				case it.Agg == AggSum && it.Col == ColRightData:
					row = append(row, g.sumR.String())
				case it.Agg == AggSum:
					row = append(row, g.sum.String())
				case it.Agg == AggMin:
					row = append(row, u(g.min))
				case it.Agg == AggMax:
					row = append(row, u(g.max))
				default:
					row = append(row, u(k))
				}
			}
			out = append(out, row)
		}
		return out, nil
	}

	if q.Distinct {
		seen := map[string]bool{}
		var uniq []refRow
		for _, r := range rows {
			key := fmt.Sprintf("%d\x00%s", r.k, r.left)
			if !seen[key] {
				seen[key] = true
				uniq = append(uniq, r)
			}
		}
		rows = uniq
	}

	var out [][]string
	for _, r := range rows {
		var row []string
		for _, it := range items {
			switch it.Col {
			case ColKey:
				row = append(row, u(r.k))
			case ColData:
				row = append(row, r.left)
			case ColLeftData:
				row = append(row, r.left)
			case ColRightData:
				row = append(row, r.right)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func multiset(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// randPred builds a random predicate over small keys.
func randPred(rng *rand.Rand, depth int) Expr {
	if depth > 0 && rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return And{L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
		case 1:
			return Or{L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
		default:
			return Not{E: randPred(rng, depth-1)}
		}
	}
	if rng.Intn(4) == 0 {
		lo := uint64(rng.Intn(8))
		return Between{Lo: lo, Hi: lo + uint64(rng.Intn(5))}
	}
	opsList := []string{"=", "!=", "<", "<=", ">", ">="}
	return Cmp{Op: opsList[rng.Intn(len(opsList))], Lit: uint64(rng.Intn(10))}
}

func renderPred(e Expr) string {
	switch v := e.(type) {
	case Cmp:
		return fmt.Sprintf("key %s %d", v.Op, v.Lit)
	case Between:
		return fmt.Sprintf("key BETWEEN %d AND %d", v.Lo, v.Hi)
	case Not:
		return fmt.Sprintf("NOT (%s)", renderPred(v.E))
	case And:
		return fmt.Sprintf("(%s AND %s)", renderPred(v.L), renderPred(v.R))
	case Or:
		return fmt.Sprintf("(%s OR %s)", renderPred(v.L), renderPred(v.R))
	default:
		panic("renderPred")
	}
}

// randCatalog builds small random tables: a, b, c with short textual
// payloads (safe to rekey through a 3-way chain) and nums, nums2 with
// numeric payloads for aggregation.
func randCatalog(rng *rand.Rand) map[string][]table.Row {
	mk := func(prefix string, n, keyRange int) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{
				J: uint64(rng.Intn(keyRange)),
				D: table.MustData(fmt.Sprintf("%s%d", prefix, i)),
			}
		}
		return rows
	}
	mkNum := func(n, keyRange, valRange int) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{
				J: uint64(rng.Intn(keyRange)),
				D: table.MustData(fmt.Sprint(rng.Intn(valRange))),
			}
		}
		return rows
	}
	return map[string][]table.Row{
		"a":     mk("a", 4+rng.Intn(12), 8),
		"b":     mk("b", 4+rng.Intn(10), 8),
		"c":     mk("c", 3+rng.Intn(8), 8),
		"nums":  mkNum(4+rng.Intn(12), 6, 100),
		"nums2": mkNum(4+rng.Intn(10), 6, 100),
	}
}

// randQuery picks a random query shape over the catalog.
func randQuery(rng *rand.Rand) string {
	where := ""
	if rng.Intn(2) == 0 {
		where = " WHERE " + renderPred(randPred(rng, 2))
	}
	switch rng.Intn(10) {
	case 0:
		return "SELECT * FROM a" + where
	case 1:
		return "SELECT key, data FROM a" + where + " ORDER BY key"
	case 2:
		return "SELECT DISTINCT * FROM a" + where
	case 3:
		return "SELECT key, COUNT(*), SUM(data), MIN(data), MAX(data) FROM nums" + where + " GROUP BY key"
	case 4:
		return "SELECT key, left.data, right.data FROM a JOIN b USING (key)" + where
	case 5:
		return "SELECT key, left.data, right.data FROM a JOIN b USING (key) JOIN c USING (key)" + where
	case 6:
		return "SELECT key, COUNT(*) FROM a JOIN b USING (key) GROUP BY key"
	case 7:
		return "SELECT key, COUNT(*) FROM a JOIN b USING (key) JOIN c USING (key) GROUP BY key"
	case 8:
		return "SELECT key, SUM(left.data), SUM(right.data), COUNT(*) FROM nums JOIN nums2 USING (key) GROUP BY key"
	default:
		return "SELECT data FROM a WHERE key IN (SELECT key FROM b)" +
			map[bool]string{true: " AND " + renderPred(randPred(rng, 1)), false: ""}[rng.Intn(2) == 0]
	}
}

func TestRandomQueriesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		tables := randCatalog(rng)
		e := NewEngine()
		for name, rows := range tables {
			if err := e.Register(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		src := randQuery(rng)
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, src, err)
		}
		got, err := e.Query(src)
		if err != nil {
			t.Fatalf("trial %d: Query(%q): %v", trial, src, err)
		}
		want, err := refQuery(tables, q)
		if err != nil {
			t.Fatalf("trial %d: reference(%q): %v", trial, src, err)
		}
		gm, wm := multiset(got.Rows), multiset(want)
		if fmt.Sprint(gm) != fmt.Sprint(wm) {
			t.Fatalf("trial %d: %q\nengine   : %v\nreference: %v", trial, src, gm, wm)
		}
		// Ordered shapes: verify the engine's key order on top of the
		// multiset equality.
		if q.OrderBy || q.GroupBy {
			prev := uint64(0)
			started := false
			for _, row := range got.Rows {
				k, err := strconv.ParseUint(row[0], 10, 64)
				if err != nil {
					continue // first column not the key in this shape
				}
				if started && k < prev {
					t.Fatalf("trial %d: %q: keys out of order: %v", trial, src, got.Rows)
				}
				prev, started = k, true
			}
		}
	}
}

// TestSumIsExact: SUM never wraps. 2 000 copies of 9 999 999 999 999 999
// under one key sum past 2⁶⁴ under GROUP BY, and so does SUM(left.data)
// over a 45 × 45 one-key join, where every left row appears 45 times.
// The engine matches the reference and the exact decimal.
func TestSumIsExact(t *testing.T) {
	const huge = "9999999999999999"
	same := func(n int) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{J: 7, D: table.MustData(huge)}
		}
		return rows
	}
	for _, c := range []struct {
		name, sql, want string
		tables          map[string][]table.Row
	}{
		{"group-by", "SELECT key, SUM(data) FROM t GROUP BY key", "7|19999999999999998000",
			map[string][]table.Row{"t": same(2000)}},
		{"join", "SELECT key, SUM(left.data) FROM t JOIN u USING (key) GROUP BY key", "7|20249999999999997975",
			map[string][]table.Row{"t": same(45), "u": same(45)}},
	} {
		e := NewEngine()
		registerAll(t, e, c.tables)
		res, err := e.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := multiset(res.Rows); len(got) != 1 || got[0] != c.want {
			t.Fatalf("%s: rows %v, want [%s]", c.name, got, c.want)
		}
		checkAgainstRef(t, goldenCase{c.name, c.sql, c.tables}, res)
	}
}
