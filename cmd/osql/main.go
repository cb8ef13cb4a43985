// Command osql runs oblivious SQL over CSV files.
//
// Each -t flag registers a table from a CSV file whose first column is
// an unsigned-integer key and second column a data payload (≤16 bytes).
// The remaining arguments form one SQL statement; prefixing it with
// EXPLAIN (or passing -explain) prints the oblivious plan instead of
// executing it.
//
// Usage:
//
//	osql -t users=users.csv -t orders=orders.csv \
//	     "SELECT key, left.data, right.data FROM users JOIN orders USING (key)"
//	osql -t users=users.csv "EXPLAIN SELECT key FROM users ORDER BY key"
//
// Flags -encrypted and -stats select an AES-sealed entry store and a
// per-operator execution report on stderr (add -tracehash for the
// access-pattern digest).
//
// Supported grammar: SELECT [DISTINCT] items FROM t {JOIN tN USING
// (key)} [WHERE pred] [GROUP BY key] [ORDER BY key] [LIMIT n]; see the
// library documentation for details.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"oblivjoin"
)

type tableFlags map[string]string

func (t tableFlags) String() string { return fmt.Sprint(map[string]string(t)) }

func (t tableFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=path, got %q", v)
	}
	t[name] = path
	return nil
}

// options holds osql's command line.
type options struct {
	tables                      tableFlags
	header, explain, replace    bool
	encrypted, stats, traceHash bool
	dataDir                     string
}

// flags registers every osql flag on fs. README's flag table names
// exactly this set (main_test.go).
func flags(fs *flag.FlagSet) *options {
	o := &options{tables: tableFlags{}}
	fs.Var(o.tables, "t", "register a table: name=path.csv (repeatable)")
	fs.BoolVar(&o.header, "header", false, "CSV files have a header row")
	fs.BoolVar(&o.explain, "explain", false, "print the oblivious plan instead of executing")
	fs.BoolVar(&o.encrypted, "encrypted", false, "keep intermediate entries AES-sealed in public memory")
	fs.BoolVar(&o.stats, "stats", false, "print a per-operator execution report to stderr")
	fs.BoolVar(&o.traceHash, "tracehash", false, "also compute the SHA-256 access-pattern digest (implies -stats)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable catalog directory (sealed WAL + snapshots): query persisted tables, including AS OF versions")
	fs.BoolVar(&o.replace, "replace", false, "-t overwrites an existing durable table instead of failing")
	return o
}

func main() {
	o := flags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() == 0 || (len(o.tables) == 0 && o.dataDir == "") {
		fmt.Fprintln(os.Stderr, "usage: osql [-data-dir dir] -t name=file.csv [-t ...] \"[EXPLAIN] SELECT ...\"")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sql := strings.Join(flag.Args(), " ")
	// EXPLAIN <query> meta-command: strip the keyword, print the plan.
	if rest, ok := cutKeyword(sql, "explain"); ok {
		o.explain = true
		sql = rest
	}

	var opts []oblivjoin.EngineOption
	if o.encrypted {
		opts = append(opts, oblivjoin.WithEncryptedStore())
	}
	if o.stats {
		opts = append(opts, oblivjoin.WithStats())
	}
	if o.traceHash {
		opts = append(opts, oblivjoin.WithTraceHash())
	}
	if o.dataDir != "" {
		opts = append(opts, oblivjoin.WithDataDir(o.dataDir))
	}
	eng, err := oblivjoin.OpenEngine(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "osql: %v\n", err)
		os.Exit(1)
	}
	// Durable catalogs flush on exit so registrations done this run
	// survive the next; a memory-only Shutdown is a no-op flush.
	defer eng.Shutdown(nil)
	for name, path := range o.tables {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osql: %v\n", err)
			os.Exit(1)
		}
		t, err := oblivjoin.ReadCSV(f, 0, 1, o.header)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "osql: %s: %v\n", path, err)
			os.Exit(1)
		}
		if o.replace {
			err = eng.Replace(name, t)
		} else {
			err = eng.Register(name, t)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "osql: %v\n", err)
			os.Exit(1)
		}
	}

	if o.explain {
		// EXPLAIN prints the plan and its modeled cost: exact comparator
		// counts, route ops and padded footprints from public
		// cardinalities, without executing anything.
		plan, err := eng.ExplainCost(sql)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osql: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(plan)
		return
	}
	stmt, err := eng.Prepare(sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "osql: %v\n", err)
		os.Exit(1)
	}
	res, ps, err := stmt.ExecStats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "osql: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, ","))
	}
	if ps != nil && (o.stats || o.traceHash) {
		fmt.Fprintln(os.Stderr, ps)
		if m := stmt.Model(); m != nil {
			fmt.Fprintf(os.Stderr, "comparators: modeled %d, observed %d\n",
				m.Comparators, ps.Comparators)
		}
	}
}

// cutKeyword strips a leading case-insensitive keyword followed by
// whitespace, reporting whether it was present.
func cutKeyword(s, kw string) (string, bool) {
	trimmed := strings.TrimLeft(s, " \t\r\n")
	if len(trimmed) <= len(kw) || !strings.EqualFold(trimmed[:len(kw)], kw) {
		return s, false
	}
	rest := trimmed[len(kw):]
	if rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\r' && rest[0] != '\n' {
		return s, false
	}
	return strings.TrimLeft(rest, " \t\r\n"), true
}
