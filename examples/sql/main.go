// SQL: the oblivious query engine end to end — the cloud-database
// scenario of the paper's introduction.
//
// A tiny retail schema is registered and queried through the SQL front
// end. Every plan stage shown by EXPLAIN is data-oblivious: the server
// hosting these tables learns table sizes, the query text, and result
// sizes — never which rows matched, joined, or dominated a group.
//
// Run with:
//
//	go run ./examples/sql
package main

import (
	"fmt"
	"log"
	"strings"

	"oblivjoin"
)

func main() {
	customers := oblivjoin.NewTable()
	customers.MustAppend(1, "ada")
	customers.MustAppend(2, "bob")
	customers.MustAppend(3, "cat")
	customers.MustAppend(4, "dan")

	orders := oblivjoin.NewTable()
	orders.MustAppend(1, "laptop")
	orders.MustAppend(1, "dock")
	orders.MustAppend(2, "chair")
	orders.MustAppend(3, "desk")
	orders.MustAppend(3, "lamp")
	orders.MustAppend(3, "rug")
	orders.MustAppend(7, "ghost")

	amounts := oblivjoin.NewTable() // order value per customer id
	for _, a := range [][2]uint64{{1, 900}, {1, 120}, {2, 250}, {3, 80}, {3, 40}, {3, 60}} {
		amounts.MustAppend(a[0], fmt.Sprint(a[1]))
	}

	premium := oblivjoin.NewTable()
	premium.MustAppend(1, "y")
	premium.MustAppend(3, "y")

	regions := oblivjoin.NewTable()
	regions.MustAppend(1, "east")
	regions.MustAppend(2, "west")
	regions.MustAppend(3, "east")

	// WithTraceHash records the SHA-256 access-pattern digest of each
	// query — the result and the digest are identical with
	// WithEncryptedStore.
	eng := oblivjoin.NewEngine(oblivjoin.WithTraceHash())
	for name, t := range map[string]*oblivjoin.Table{
		"customers": customers, "orders": orders, "amounts": amounts,
		"premium": premium, "regions": regions,
	} {
		if err := eng.Register(name, t); err != nil {
			log.Fatal(err)
		}
	}

	queries := []string{
		"SELECT key, left.data, right.data FROM customers JOIN orders USING (key)",
		"SELECT data FROM customers WHERE key IN (SELECT key FROM premium)",
		"SELECT key, COUNT(*), SUM(data) FROM amounts GROUP BY key",
		"SELECT key, COUNT(*) FROM customers JOIN orders USING (key) GROUP BY key",
		"SELECT DISTINCT key, data FROM orders WHERE key BETWEEN 1 AND 3",
		// A 3-way join (§7): customers ⋈ orders ⋈ regions, composed by
		// re-keying the keyed intermediate result between the stages.
		"SELECT key, left.data, right.data FROM customers JOIN orders USING (key) JOIN regions USING (key)",
	}
	for _, q := range queries {
		plan, err := eng.Explain(q)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sql>  %s\nplan: %s\n", q, plan)
		fmt.Printf("      %s\n", strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			fmt.Printf("      %s\n", strings.Join(row, " | "))
		}
		if st := eng.LastStats(); st != nil {
			fmt.Printf("      trace-hash %s… (%d events, %d comparators)\n",
				st.TraceHash[:16], st.TraceEvents, st.Comparators)
		}
		fmt.Println()
	}

	fmt.Println("note the fourth plan: COUNT over a join uses the §7 fast path —")
	fmt.Println("group dimensions from Augment-Tables, no join materialization;")
	fmt.Println("the last plan chains two oblivious joins through a rekey stage.")
}
