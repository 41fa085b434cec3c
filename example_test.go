package hybrid_test

import (
	"fmt"
	"log"

	hybrid "repro"
)

// Engines change wall-clock speed only: for a fixed seed, the goroutine-free
// step engine (the default) and the goroutine-per-node reference engine
// produce byte-identical results and Metrics. See ARCHITECTURE.md for the
// engine guide.
func ExampleWithEngine() {
	g := hybrid.GridGraph(6, 6)
	step, err := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(hybrid.EngineStep)).APSP()
	if err != nil {
		log.Fatal(err)
	}
	legacy, err := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(hybrid.EngineLegacy)).APSP()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("corner to corner:", step.Dist[0][35])
	fmt.Println("identical metrics:", step.Metrics == legacy.Metrics)
	// Output:
	// corner to corner: 10
	// identical metrics: true
}

// The headline result: exact all-pairs shortest paths in O~(sqrt n) HYBRID
// rounds (Theorem 1.1).
func ExampleNetwork_APSP() {
	g := hybrid.GridGraph(6, 6)
	net := hybrid.New(g, hybrid.WithSeed(1))
	res, err := net.APSP()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("corner to corner:", res.Dist[0][35])
	// Output: corner to corner: 10
}

// Exact single-source shortest paths in O~(n^(2/5)) rounds (Theorem 1.3).
func ExampleNetwork_SSSP() {
	g := hybrid.PathGraph(30)
	net := hybrid.New(g, hybrid.WithSeed(2))
	res, err := net.SSSP(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("distance to far end:", res.Dist[29])
	// Output: distance to far end: 29
}

// Diameter approximation (Theorem 1.4): small diameters resolve exactly
// through the h-hat aggregation path of Equation (3).
func ExampleNetwork_Diameter() {
	g := hybrid.GridGraph(5, 5)
	net := hybrid.New(g, hybrid.WithSeed(3))
	res, err := net.Diameter(hybrid.DiamCor52(0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("estimate:", res.Estimate)
	// Output: estimate: 8
}

// Approximate k-source shortest paths (Theorem 1.2): Corollary 4.6 gives a
// (1+ε)-approximation on unweighted graphs for up to n^(1/3) sources.
func ExampleNetwork_KSSP() {
	g := hybrid.GridGraph(6, 6)
	net := hybrid.New(g, hybrid.WithSeed(4))
	sources := []int{0, 35}
	res, err := net.KSSP(sources, hybrid.Cor46(0.5))
	if err != nil {
		log.Fatal(err)
	}
	// res.Dist[v][s] is node v's estimate of d(v, s).
	fmt.Println("node 35 to source 0:", res.Dist[35][0])
	fmt.Println("node 0 to source 35:", res.Dist[0][35])
	// Output:
	// node 35 to source 0: 10
	// node 0 to source 35: 10
}

// The token routing protocol of Theorem 2.2, exposed directly: every node
// ships one token to its successor on a cycle, in O~(K/n + sqrt(kS) +
// sqrt(kR)) rounds. Receivers know the labels they expect (the problem
// statement's convention) and get the payloads filled in.
func ExampleNetwork_TokenRouting() {
	g := hybrid.CycleGraph(8)
	n := g.N()
	specs := make([]hybrid.RoutingSpec, n)
	for v := 0; v < n; v++ {
		next := (v + 1) % n
		prev := (v - 1 + n) % n
		specs[v] = hybrid.RoutingSpec{
			Send:   []hybrid.RoutingToken{{Label: hybrid.RoutingLabel{S: v, R: next}, Value: int64(100 + v)}},
			Expect: []hybrid.RoutingLabel{{S: prev, R: v}},
			InS:    true, InR: true,
			KS: 1, KR: 1,
			PS: 1, PR: 1,
		}
	}
	net := hybrid.New(g, hybrid.WithSeed(5))
	got, _, err := net.TokenRouting(specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("node 0 received:", got[0][0].Value, "from", got[0][0].S)
	// Output: node 0 received: 107 from 7
}

// Forwarding tables from an APSP result — the paper's IP-routing
// motivation.
func ExampleNextHops() {
	g := hybrid.PathGraph(4)
	dist := hybrid.ExactAPSP(g)
	tables := hybrid.NextHops(g, dist)
	fmt.Println("node 0 toward node 3 via:", tables[0][3])
	fmt.Println("route:", hybrid.FollowRoute(tables, 0, 3))
	// Output:
	// node 0 toward node 3 via: 1
	// route: [0 1 2 3]
}

// The Figure 2 lower-bound family: the diameter of Γ encodes set
// disjointness (Lemma 7.2 dichotomy).
func ExampleGammaGraph() {
	// Disjoint instance (all-zero inputs insert every red edge).
	a := make([]bool, 4)
	b := make([]bool, 4)
	g, err := hybrid.GammaGraph(2, 3, 1, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("disjoint => D = l+1:", hybrid.HopDiameter(g))

	// Intersecting instance: index 0 set on both sides.
	a[0], b[0] = true, true
	g2, _ := hybrid.GammaGraph(2, 3, 1, a, b)
	fmt.Println("intersecting => D = l+2:", hybrid.HopDiameter(g2))
	// Output:
	// disjoint => D = l+1: 4
	// intersecting => D = l+2: 5
}
