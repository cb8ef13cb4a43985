// Example service demonstrates the concurrent serving layer: one
// engine shared by many goroutines, a statement prepared once and
// executed 8 ways in parallel, and the plan cache doing its job.
// Every concurrent run produces the same rows and the same canonical
// access-pattern hash as a sequential one.
package main

import (
	"fmt"
	"log"
	"sync"

	"oblivjoin"
)

func main() {
	eng := oblivjoin.NewEngine(oblivjoin.WithTraceHash())

	users := oblivjoin.NewTable()
	orders := oblivjoin.NewTable()
	for i := 0; i < 256; i++ {
		users.MustAppend(uint64(i%96), fmt.Sprintf("u%d", i))
		orders.MustAppend(uint64(i%96), fmt.Sprintf("o%d", i))
	}
	if err := eng.Register("users", users); err != nil {
		log.Fatal(err)
	}
	if err := eng.Register("orders", orders); err != nil {
		log.Fatal(err)
	}

	// Prepared once: parsed, planned and lowered a single time.
	stmt, err := eng.Prepare("SELECT key, COUNT(*) FROM users JOIN orders USING (key) GROUP BY key")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", stmt.Explain())

	// Executed 8 ways concurrently: each run gets an isolated execution
	// context, so results and trace hashes are identical everywhere.
	const goroutines = 8
	hashes := make([]string, goroutines)
	rows := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, ps, err := stmt.ExecStats()
			if err != nil {
				log.Fatal(err)
			}
			rows[g] = len(res.Rows)
			hashes[g] = ps.TraceHash
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if hashes[g] != hashes[0] || rows[g] != rows[0] {
			log.Fatal("concurrent runs diverged")
		}
	}
	fmt.Printf("%d concurrent executions: %d groups each, all trace hashes %s…\n",
		goroutines, rows[0], hashes[0][:16])

	cs := eng.CacheStats()
	fmt.Printf("plan cache: %d miss, %d hits\n", cs.Misses, cs.Hits)
}
