// datacenter demonstrates the paper's second motivating scenario (§1):
// a datacenter whose wired rack-level fabric (local graph: clusters of
// servers bridged by a spine) is augmented with a flexible low-bandwidth
// global mode (free-space optical / wireless, per Helios and Flyways).
//
// The operators watch the fabric's diameter — a proxy for worst-case
// latency — using the (3/2+ε) and (1+ε) estimators of Theorem 1.4, and
// localize slowdowns with the exact SSSP of Theorem 1.3 from a monitor
// node, all in rounds sublinear in n.
package main

import (
	"fmt"
	"log"

	hybrid "repro"
)

// buildFabric creates `racks` cliques of `perRack` servers, chained by
// top-of-rack uplinks — a deliberately elongated fabric so the diameter is
// interesting.
func buildFabric(racks, perRack int) *hybrid.Graph {
	g := hybrid.NewGraph(racks * perRack)
	id := func(r, s int) int { return r*perRack + s }
	for r := 0; r < racks; r++ {
		for a := 0; a < perRack; a++ {
			for b := a + 1; b < perRack; b++ {
				g.MustAddEdge(id(r, a), id(r, b), 1)
			}
		}
		if r+1 < racks {
			g.MustAddEdge(id(r, 0), id(r+1, 0), 1) // ToR uplink chain
		}
	}
	return g
}

func main() {
	g := buildFabric(12, 8)
	d := hybrid.HopDiameter(g)
	fmt.Printf("fabric: %d servers in 12 racks, hop diameter %d\n", g.N(), d)

	for _, v := range []struct {
		name string
		spec hybrid.DiameterSpec
	}{
		{"(3/2+eps) estimator (Cor 5.2)", hybrid.DiamCor52(0.25)},
		{"(1+eps) estimator   (Cor 5.3)", hybrid.DiamCor53(0.25)},
	} {
		net := hybrid.New(g, hybrid.WithSeed(11))
		res, err := net.Diameter(v.spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: D~ = %d (true %d, ratio %.2f) in %d rounds\n",
			v.name, res.Estimate, d, float64(res.Estimate)/float64(d), res.Metrics.Rounds)
	}

	// A monitor in rack 0 measures exact distances to every server
	// (Theorem 1.3), e.g. to locate which rack a latency regression is in.
	net := hybrid.New(g, hybrid.WithSeed(12))
	mon, err := net.SSSP(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := hybrid.Certify(g, 0, mon.Dist); err != nil {
		log.Fatalf("monitor distances: %v", err)
	}
	var worst int64
	worstRack := 0
	for r := 0; r < 12; r++ {
		if dd := mon.Dist[r*8]; dd > worst {
			worst, worstRack = dd, r
		}
	}
	fmt.Printf("monitor SSSP exact for all %d servers in %d rounds; farthest rack: %d at distance %d\n",
		g.N(), mon.Metrics.Rounds, worstRack, worst)
}
