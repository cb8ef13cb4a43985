// Package query implements a small SQL front end over the repository's
// oblivious operators, turning the library into the system the paper's
// introduction motivates: a cloud database that answers queries over a
// client's data without its access pattern revealing the data.
//
// # Grammar
//
// Supported grammar (keywords case-insensitive):
//
//	SELECT [DISTINCT] select_list
//	FROM table
//	{JOIN table USING (key)}
//	[AS OF version]
//	[WHERE predicate]
//	[GROUP BY key]
//	[ORDER BY key]
//	[LIMIT n]
//
//	select_list := * | item {, item}
//	item        := key | data | left.data | right.data
//	             | COUNT(*) | SUM(data) | MIN(data) | MAX(data)
//	             | SUM(left.data) | SUM(right.data)
//	predicate   := disjunctions/conjunctions/NOT over
//	               key <op> N | key BETWEEN N AND M
//	             | key IN (SELECT key FROM table)
//
// JOIN clauses chain: `FROM a JOIN b USING (key) JOIN c USING (key)`
// composes left-to-right as the paper's §7 multi-way join, re-keying
// each keyed intermediate result (payloads concatenate with "+", and
// left.data addresses the accumulated left payload). With GROUP BY,
// the final join of a chain runs as the §7 aggregation fast path
// (COUNT(*), and for binary joins also SUM(left.data)/SUM(right.data))
// without ever materializing the join.
//
// # Architecture
//
// A statement passes through three layers:
//
//  1. Parse (token.go, parse.go, ast.go) produces the *Query AST.
//  2. The planner (plan.go) builds a logical plan — a linear tree of
//     typed PlanNodes — from the AST and the registered catalog.
//     Explain renders this tree; it depends only on the query shape
//     and table names, never on contents.
//  3. Lowering maps each node onto a physical operator of
//     internal/query/exec; Run walks the pipeline with the one
//     executor, exec.Driver — row batches streaming between stages —
//     threading one exec.Context whose single core.Config carries the
//     store allocator (plain or block-sealed) and instrumentation
//     through every operator.
//
// Execution is sequential and unsharded. The three live Options select
// the sealed entry store (Encrypted) and per-query PlanStats reports
// with an optional SHA-256 access-pattern hash (CollectStats,
// TraceHash); Workers and Shards are ignored.
// Results, plans and trace hashes are identical between plain and
// encrypted stores.
//
// Every operator in the executed plan is oblivious: filters compile to
// branch-free predicates evaluated on every row, joins run the paper's
// algorithm, IN-subqueries become oblivious semijoins, and GROUP BY
// becomes the oblivious aggregation.
//
// # Cost-aware planning
//
// Because every oblivious operator executes a fixed schedule
// determined by its public input/output sizes, the plan's cost is an
// exact closed form, not an estimate: ComputePlanCost prices each
// stage in compare–exchanges, routing hops and padded store bytes
// from the catalog cardinalities alone (cost.go), and RenderPlanCost
// prints the table EXPLAIN shows. A join's output size m enters that
// table as the estimate min(n₁, n₂): m is public only once the join has
// run, and fan-out keys exceed the estimate without bound. So the
// planner does not order joins by the model — a JOIN chain runs in the
// order the query wrote it — and public row counts only order
// semijoins. Plans remain a pure function of the query text and public
// cardinalities — the Card interface is planning's only window onto the
// catalog; see docs/PLANNING.md at the repository root for the full
// model.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer output.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSymbol // ( ) , . *
	tokOp     // = != < <= > >=
)

type token struct {
	kind tokKind
	text string // keywords and identifiers are lower-cased
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits a query into tokens. SQL strings are not needed (data
// payloads never appear as literals in the supported grammar).
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(src[i:j]), i})
			i = j
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("query: stray '!' at offset %d", i)
			}
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < len(src) && src[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, token{tokOp, op, i})
			i++
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}
