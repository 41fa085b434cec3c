// Quickstart: build a small local communication graph, run the paper's
// headline algorithm (Theorem 1.1 exact APSP in O~(sqrt n) HYBRID rounds),
// and inspect the result and its cost.
package main

import (
	"fmt"
	"log"

	hybrid "repro"
)

func main() {
	// The local communication graph G: a 8x8 grid (hop diameter 14).
	g := hybrid.GridGraph(8, 8)

	// A HYBRID network over G: LOCAL mode on the grid edges plus the
	// O(log n)-messages-per-round global mode.
	net := hybrid.New(g, hybrid.WithSeed(42))

	// Exact all-pairs shortest paths (Theorem 1.1).
	res, err := net.APSP()
	if err != nil {
		log.Fatal(err)
	}

	// Every node now knows its distance to every other node.
	fmt.Printf("d(corner, opposite corner) = %d (want 14)\n", res.Dist[0][63])
	fmt.Printf("d(corner, center)          = %d\n", res.Dist[0][27])

	// Certify every row: a local check that needs no sequential APSP.
	for u, row := range res.Dist {
		if err := hybrid.Certify(g, u, row); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("all 64x64 distances exact")

	// The cost the paper's theorems are about:
	m := res.Metrics
	fmt.Printf("HYBRID rounds: %d  (pure-LOCAL flooding would need >= D = 14, but with n^2 messages;\n", m.Rounds)
	fmt.Printf("global messages: %d, max per-round receive load: %d = O(log n))\n", m.GlobalMsgs, m.MaxGlobalRecv)
}
