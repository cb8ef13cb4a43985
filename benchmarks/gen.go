package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"oblivjoin/internal/table"
	"oblivjoin/internal/workload"
)

// This file holds the seeded input generators. The seed decides the
// secret structure (which keys, which payloads, which row order); the
// public sizes — every table's row count and every query's output
// cardinality — are a function of the configured sizes alone, so a run
// does the same amount of oblivious work under every seed.

// data36 renders tag plus width base-36 digits drawn from rng: a short
// payload that survives the rekey concatenation of a 3-way join chain
// inside table.DataLen.
func data36(rng *rand.Rand, tag byte, width int) table.Data {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 1+width)
	b[0] = tag
	for i := 1; i < len(b); i++ {
		b[i] = digits[rng.Intn(len(digits))]
	}
	return table.MustData(string(b))
}

// distinctKeys draws n distinct non-zero keys.
func distinctKeys(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()>>16 + 1
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func shuffleRows(rng *rand.Rand, rows []table.Row) {
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
}

// joinInput is one input shape of a join workload with its expected
// output fingerprint.
type joinInput struct {
	shape       string
	left, right []table.Row
	want        fingerprint
}

// joinShapes are the three input shapes the join workloads rotate; all
// have n1 = n2 = m = n.
var joinShapes = []string{"one-to-one", "power-law", "pk-fk"}

// groupDims returns the fixed multiset of matched group dimensions
// (a rows on the left × b rows on the right) of the power-law shape for
// size n: a few large k×k groups, twice as many at every halving of k,
// until they account for about half of the output; the rest of the
// output is 1×1 groups. The result depends on n only.
func groupDims(n int) (dims [][2]int) {
	m := 0
	count := 1
	for k := 16; k >= 2 && m < n/2; k /= 2 {
		for c := 0; c < count && m+k*k <= n/2; c++ {
			dims = append(dims, [2]int{k, k})
			m += k * k
		}
		count *= 2
	}
	for ; m < n; m++ {
		dims = append(dims, [2]int{1, 1})
	}
	return dims
}

// genJoinInput builds one join input of the named shape with
// n1 = n2 = m = n from the seed.
func genJoinInput(shape string, n int, seed int64) joinInput {
	rng := rand.New(rand.NewSource(seed))
	left := make([]table.Row, 0, n)
	right := make([]table.Row, 0, n)
	switch shape {
	case "one-to-one":
		for _, k := range distinctKeys(rng, n) {
			left = append(left, table.Row{J: k, D: data36(rng, 'l', 6)})
			right = append(right, table.Row{J: k, D: data36(rng, 'r', 6)})
		}
	case "power-law":
		dims := groupDims(n)
		keys := distinctKeys(rng, len(dims)+2*n)
		for i, d := range dims {
			for a := 0; a < d[0]; a++ {
				left = append(left, table.Row{J: keys[i], D: data36(rng, 'l', 6)})
			}
			for b := 0; b < d[1]; b++ {
				right = append(right, table.Row{J: keys[i], D: data36(rng, 'r', 6)})
			}
		}
		// Unmatched rows pad both sides to n without adding output.
		next := len(dims)
		for len(left) < n {
			left = append(left, table.Row{J: keys[next], D: data36(rng, 'l', 6)})
			next++
		}
		for len(right) < n {
			right = append(right, table.Row{J: keys[next], D: data36(rng, 'r', 6)})
			next++
		}
	case "pk-fk":
		// Reuse the evaluation's generator for the key structure (every
		// foreign key references one primary key, so m = n2), then
		// restamp keys and payloads from the seed.
		pk, fk := workload.PKFK(n, n, seed)
		keys := distinctKeys(rng, n)
		for _, r := range pk {
			left = append(left, table.Row{J: keys[r.J], D: data36(rng, 'l', 6)})
		}
		for _, r := range fk {
			right = append(right, table.Row{J: keys[r.J], D: data36(rng, 'r', 6)})
		}
	default:
		panic("unknown join shape " + shape)
	}
	shuffleRows(rng, left)
	shuffleRows(rng, right)
	return joinInput{shape: shape, left: left, right: right, want: naiveJoin(left, right)}
}

// sqlSizes are the public table sizes of a SQL workload.
type sqlSizes struct {
	dim, mid, fact int // serve: dim ⊂ mid keys, fact references mid
	read, hot      int // durable: rows of a and b; rows of each hot table
}

// keyStride spaces table keys so that every key is followed by a gap
// of at least keyStride/2 unused values: a query literal can move
// inside the gap — a never-seen SQL text — without changing the result.
const keyStride = 1 << 20

// slotKey places slot s at a seeded offset in the lower half of its
// stride.
func slotKey(rng *rand.Rand, s int) uint64 {
	return uint64(s+1)*keyStride + uint64(rng.Intn(keyStride/2))
}

// sqlTables is the generated catalog of a SQL workload plus the
// literals its query shapes need.
type sqlTables struct {
	tables map[string][]table.Row
	// pointKey is a dim key; rangeLo/rangeHi bracket a fixed number of
	// mid keys with gap room on both sides; above exceeds every key.
	pointKey, rangeLo, rangeHi, above uint64
	// hotKeys is the fixed key set of the durable workload's hot tables.
	hotKeys []uint64
}

// factGroups is the fixed multiset of fact group sizes: g groups over
// rows rows, each taking an eighth of what is left, so a few keys are
// heavy and most have one row.
func factGroups(rows, g int) []int {
	sizes := make([]int, g)
	for i := range sizes {
		sizes[i] = 1
	}
	left := rows - g
	for i := 0; left > 0; i = (i + 1) % g {
		add := left / 8
		if add < 1 {
			add = 1
		}
		sizes[i] += add
		left -= add
	}
	return sizes
}

// genServeTables builds dim, mid, mid2 and fact. Public facts, equal
// for every seed: |dim| = sz.dim, |mid| = |mid2| = sz.mid, |fact| =
// sz.fact; dim ⊂ mid; |mid ∩ mid2| = 3/4 sz.mid; fact references
// sz.mid/2 mid keys of which sz.dim/2 are dim keys, with the group
// sizes of factGroups, and every second row of a group repeats the row
// before it.
func genServeTables(sz sqlSizes, seed int64) *sqlTables {
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(2 * sz.mid)
	midKeys := make([]uint64, sz.mid)
	for i := range midKeys {
		midKeys[i] = slotKey(rng, slots[i])
	}
	t := &sqlTables{tables: map[string][]table.Row{}}
	var dim, mid, mid2, fact []table.Row
	for i, k := range midKeys {
		mid = append(mid, table.Row{J: k, D: data36(rng, 'm', 3)})
		if i < sz.dim {
			dim = append(dim, table.Row{J: k, D: data36(rng, 'd', 2)})
		}
		if i < sz.mid*3/4 {
			mid2 = append(mid2, table.Row{J: k, D: data36(rng, 'n', 3)})
		}
	}
	for i := sz.mid; len(mid2) < sz.mid; i++ {
		mid2 = append(mid2, table.Row{J: slotKey(rng, slots[i]), D: data36(rng, 'n', 3)})
	}
	// fact: the first dim/2 groups sit on dim keys, the rest on mid
	// keys outside dim.
	// Rows of a group come in identical pairs (payload ids are unique
	// otherwise), so DISTINCT removes a fixed number of rows.
	groups := factGroups(sz.fact, sz.mid/2)
	ids := rng.Perm(sz.fact)
	for g, size := range groups {
		k := midKeys[g]
		if g >= sz.dim/2 {
			k = midKeys[sz.dim+g]
		}
		for i := 0; i < size; i++ {
			id := ids[len(fact)-i%2]
			fact = append(fact, table.Row{J: k, D: table.MustData("f" + strconv.FormatInt(int64(id), 36))})
		}
	}
	sorted := append([]uint64(nil), midKeys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	t.pointKey = dim[rng.Intn(len(dim))].J
	t.rangeLo = sorted[sz.mid/8] - 1
	t.rangeHi = sorted[sz.mid/8+sz.mid/4-1] + 1
	t.above = uint64(2*sz.mid+2) * keyStride
	for _, nt := range []struct {
		name string
		rows []table.Row
	}{{"dim", dim}, {"mid", mid}, {"mid2", mid2}, {"fact", fact}} {
		shuffleRows(rng, nt.rows)
		t.tables[nt.name] = nt.rows
	}
	return t
}

// genDurableTables builds a and b (the read tables, sz.read rows with
// distinct keys, sharing 3/4 of them) and one hot table of sz.hot rows
// per client.
func genDurableTables(sz sqlSizes, clients int, seed int64) *sqlTables {
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(2 * sz.read)
	t := &sqlTables{tables: map[string][]table.Row{}}
	var a, b []table.Row
	var keys []uint64
	for i := 0; i < sz.read; i++ {
		k := slotKey(rng, slots[i])
		keys = append(keys, k)
		a = append(a, table.Row{J: k, D: data36(rng, 'a', 3)})
		if i < sz.read*3/4 {
			b = append(b, table.Row{J: k, D: data36(rng, 'b', 3)})
		}
	}
	for i := sz.read; len(b) < sz.read; i++ {
		b = append(b, table.Row{J: slotKey(rng, slots[i]), D: data36(rng, 'b', 3)})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	t.rangeLo = keys[sz.read/8] - 1
	t.rangeHi = keys[sz.read/8+sz.read/4-1] + 1
	t.above = uint64(2*sz.read+2) * keyStride
	shuffleRows(rng, a)
	shuffleRows(rng, b)
	t.tables["a"], t.tables["b"] = a, b
	t.hotKeys = distinctKeys(rng, sz.hot)
	for c := 0; c < clients; c++ {
		t.tables[hotName(c)] = hotRows(t.hotKeys, c, 0)
	}
	return t
}

func hotName(client int) string { return fmt.Sprintf("hot%d", client) }

// hotRows is the content client c writes at sequence number seq: the
// fixed key set with a payload naming the write, so the durability
// check can tell which acknowledged write a recovered table holds.
func hotRows(keys []uint64, c, seq int) []table.Row {
	rows := make([]table.Row, len(keys))
	d := table.MustData(fmt.Sprintf("c%dw%d", c, seq))
	for i, k := range keys {
		rows[i] = table.Row{J: k, D: d}
	}
	return rows
}
