// iprouting demonstrates the paper's motivating application (§1): a network
// of wireless devices with short-range local links (the local graph) plus
// cellular connectivity (the global mode) learns the topology of its local
// network to build IP routing tables.
//
// Every node ends up with a next-hop table for every destination, derived
// from the exact APSP of Theorem 1.1.
package main

import (
	"fmt"
	"log"
	"math/rand"

	hybrid "repro"
)

func main() {
	// 120 devices scattered in the unit square; devices within radio range
	// share a local link — the paper's device-to-device scenario.
	rng := rand.New(rand.NewSource(7))
	g := hybrid.GeometricGraph(120, 0.17, rng)
	fmt.Printf("wireless mesh: n=%d, links=%d, hop diameter=%d\n", g.N(), g.M(), hybrid.HopDiameter(g))

	net := hybrid.New(g, hybrid.WithSeed(7))
	res, err := net.APSP()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology learned in %d HYBRID rounds (%d global messages, peak receive load %d)\n",
		res.Metrics.Rounds, res.Metrics.GlobalMsgs, res.Metrics.MaxGlobalRecv)

	// Forwarding tables for every node, from the exact distances.
	tables := res.NextHops(g)
	fmt.Println("node 0 routing table (first 10 destinations):")
	for t := 1; t <= 10; t++ {
		fmt.Printf("  dest %3d: next hop %3d, distance %d\n", t, tables[0][t], res.Dist[0][t])
	}

	// Sanity: following next hops always reaches the destination along a
	// shortest path.
	checked := 0
	for s := 0; s < g.N(); s += 7 {
		for t := 0; t < g.N(); t += 11 {
			if s == t {
				continue
			}
			path := hybrid.FollowRoute(tables, s, t)
			if path == nil || int64(len(path)-1) > res.Dist[s][t] {
				log.Fatalf("routing failure from %d to %d", s, t)
			}
			if w, ok := hybrid.PathWeight(g, path); !ok || w != res.Dist[s][t] {
				log.Fatalf("route %d->%d is a detour", s, t)
			}
			checked++
		}
	}
	fmt.Printf("verified %d forwarding paths: all loop-free shortest routes\n", checked)
}
