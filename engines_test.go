// Differential tests between the three round engines: for fixed seeds, the
// legacy goroutine-per-node engine, the goroutine-free step engine, and the
// multi-process distributed engine must produce byte-identical distances,
// diameter estimates, round counts, and cost metrics on every algorithm of
// the public API. The legacy engine is the oracle — it calls every machine
// in every round — so any divergence is an engine, sleep-schedule or wire
// protocol bug by definition. EngineDist additionally routes every global
// message through worker OS processes (see internal/dist).
package hybrid_test

import (
	"math/rand"
	"reflect"
	"testing"

	hybrid "repro"
)

// allEngines is the engine matrix every differential test sweeps.
var allEngines = []hybrid.Engine{hybrid.EngineLegacy, hybrid.EngineStep, hybrid.EngineDist}

// engineSuite returns the small graph suite the differential tests run on:
// a grid, a random sparse graph, a path (worst case for flooding), and a
// weighted grid.
func engineSuite(t *testing.T) map[string]*hybrid.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	suite := map[string]*hybrid.Graph{
		"grid":   hybrid.GridGraph(7, 7),
		"random": hybrid.SparseGraph(48, 1.4, rng),
		"path":   hybrid.PathGraph(40),
	}
	suite["weighted-grid"] = hybrid.WithRandomWeights(hybrid.GridGraph(6, 6), 9, rng)
	return suite
}

func engineNet(g *hybrid.Graph, seed int64, eng hybrid.Engine) *hybrid.Network {
	return hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(eng))
}

func TestEnginesAgreeAPSP(t *testing.T) {
	for name, g := range engineSuite(t) {
		oracle, err := engineNet(g, 101, hybrid.EngineLegacy).APSP()
		if err != nil {
			t.Fatalf("%s legacy: %v", name, err)
		}
		// The oracle itself must be exact.
		if want := hybrid.ExactAPSP(g); !reflect.DeepEqual(oracle.Dist, want) {
			t.Errorf("%s: legacy APSP diverges from sequential ground truth", name)
		}
		for _, eng := range allEngines[1:] {
			res, err := engineNet(g, 101, eng).APSP()
			if err != nil {
				t.Fatalf("%s %s: %v", name, eng, err)
			}
			if !reflect.DeepEqual(oracle.Dist, res.Dist) {
				t.Errorf("%s: APSP distance matrices differ between legacy and %s", name, eng)
			}
			if oracle.Metrics != res.Metrics {
				t.Errorf("%s: APSP metrics differ: legacy %+v %s %+v", name, oracle.Metrics, eng, res.Metrics)
			}
		}
	}
}

// TestEnginesAgreeCut: the cut counters are part of the Metrics every engine
// must agree on, and APSP on a grid split into two halves crosses the cut.
func TestEnginesAgreeCut(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	cut := make([]bool, g.N())
	for v := 0; v < g.N()/2; v++ {
		cut[v] = true
	}
	var oracle hybrid.Metrics
	for i, eng := range allEngines {
		res, err := hybrid.New(g, hybrid.WithSeed(101), hybrid.WithEngine(eng), hybrid.WithCut(cut)).APSP()
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		m := res.Metrics
		if m.CutGlobalMsgs == 0 || m.CutGlobalBits == 0 {
			t.Errorf("%s: no global message crossed the cut: %+v", eng, m)
		}
		if i == 0 {
			oracle = m
		} else if m != oracle {
			t.Errorf("cut metrics differ: legacy %+v %s %+v", oracle, eng, m)
		}
	}
}

func TestEnginesAgreeAPSPBaseline(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	oracle, err := engineNet(g, 707, hybrid.EngineLegacy).APSPBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines[1:] {
		res, err := engineNet(g, 707, eng).APSPBaseline()
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !reflect.DeepEqual(oracle.Dist, res.Dist) {
			t.Errorf("baseline APSP distances differ between legacy and %s", eng)
		}
		if oracle.Metrics != res.Metrics {
			t.Errorf("baseline APSP metrics differ: legacy %+v %s %+v", oracle.Metrics, eng, res.Metrics)
		}
	}
}

func TestEnginesAgreeSSSP(t *testing.T) {
	for name, g := range engineSuite(t) {
		oracle, err := engineNet(g, 202, hybrid.EngineLegacy).SSSP(0)
		if err != nil {
			t.Fatalf("%s legacy: %v", name, err)
		}
		for _, eng := range allEngines[1:] {
			res, err := engineNet(g, 202, eng).SSSP(0)
			if err != nil {
				t.Fatalf("%s %s: %v", name, eng, err)
			}
			if !reflect.DeepEqual(oracle.Dist, res.Dist) {
				t.Errorf("%s: SSSP distances differ between legacy and %s", name, eng)
			}
			if oracle.Metrics.Rounds != res.Metrics.Rounds {
				t.Errorf("%s: SSSP round counts differ: %d vs %d (%s)", name, oracle.Metrics.Rounds, res.Metrics.Rounds, eng)
			}
		}
	}
}

func TestEnginesAgreeDiameter(t *testing.T) {
	for name, g := range engineSuite(t) {
		if name == "weighted-grid" {
			continue // Diameter is defined on unweighted graphs.
		}
		oracle, err := engineNet(g, 303, hybrid.EngineLegacy).Diameter(hybrid.DiamCor52(0.5))
		if err != nil {
			t.Fatalf("%s legacy: %v", name, err)
		}
		for _, eng := range allEngines[1:] {
			res, err := engineNet(g, 303, eng).Diameter(hybrid.DiamCor52(0.5))
			if err != nil {
				t.Fatalf("%s %s: %v", name, eng, err)
			}
			if oracle.Estimate != res.Estimate {
				t.Errorf("%s: diameter estimates differ: %d vs %d (%s)", name, oracle.Estimate, res.Estimate, eng)
			}
			if oracle.Metrics != res.Metrics {
				t.Errorf("%s: diameter metrics differ between legacy and %s", name, eng)
			}
		}
	}
}

func TestEnginesAgreeKSSP(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	sources := []int{0, 17, 35}
	oracle, err := engineNet(g, 404, hybrid.EngineLegacy).KSSP(sources, hybrid.Cor47(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines[1:] {
		res, err := engineNet(g, 404, eng).KSSP(sources, hybrid.Cor47(0.5))
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !reflect.DeepEqual(oracle.Dist, res.Dist) {
			t.Errorf("KSSP estimates differ between legacy and %s", eng)
		}
		if oracle.Metrics != res.Metrics {
			t.Errorf("KSSP metrics differ: legacy %+v %s %+v", oracle.Metrics, eng, res.Metrics)
		}
	}
}

func TestEnginesAgreeTokenRouting(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	n := g.N()
	specs := make([]hybrid.RoutingSpec, n)
	for v := range specs {
		next := (v + 1) % n
		prev := (v - 1 + n) % n
		specs[v] = hybrid.RoutingSpec{
			Send:   []hybrid.RoutingToken{{Label: hybrid.RoutingLabel{S: v, R: next}, Value: int64(v)}},
			Expect: []hybrid.RoutingLabel{{S: prev, R: v}},
			InS:    true,
			InR:    true,
			KS:     1,
			KR:     1,
			PS:     1,
			PR:     1,
		}
	}
	oracleOut, oracleM, err := engineNet(g, 505, hybrid.EngineLegacy).TokenRouting(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines[1:] {
		out, m, err := engineNet(g, 505, eng).TokenRouting(specs)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !reflect.DeepEqual(oracleOut, out) {
			t.Errorf("routed tokens differ between legacy and %s", eng)
		}
		if oracleM != m {
			t.Errorf("routing metrics differ: legacy %+v %s %+v", oracleM, eng, m)
		}
	}
}

// TestEnginesAgreeKSSPRealMM covers the real-message CLIQUE simulation
// path at facade level: every simulated round routes actual tokens through
// a RouteMachine, and all engines must stay byte-identical.
func TestEnginesAgreeKSSPRealMM(t *testing.T) {
	g := hybrid.GridGraph(5, 5)
	sources := []int{0, 24}
	oracle, err := engineNet(g, 606, hybrid.EngineLegacy).KSSP(sources, hybrid.KSSPRealMM(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines[1:] {
		res, err := engineNet(g, 606, eng).KSSP(sources, hybrid.KSSPRealMM(2))
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !reflect.DeepEqual(oracle.Dist, res.Dist) {
			t.Errorf("RealMM KSSP estimates differ between legacy and %s", eng)
		}
		if oracle.Metrics != res.Metrics {
			t.Errorf("RealMM KSSP metrics differ: legacy %+v %s %+v", oracle.Metrics, eng, res.Metrics)
		}
	}
}

// TestEnginesAgreeWeightedDiameterApprox covers the weighted footnote-6
// pipeline (SSSP + eccentricity doubling) across the engine matrix.
func TestEnginesAgreeWeightedDiameterApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := hybrid.WithRandomWeights(hybrid.GridGraph(5, 5), 6, rng)
	oracle, err := engineNet(g, 808, hybrid.EngineLegacy).WeightedDiameterApprox()
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines[1:] {
		res, err := engineNet(g, 808, eng).WeightedDiameterApprox()
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if oracle.Estimate != res.Estimate {
			t.Errorf("weighted diameter estimates differ: %d vs %d (%s)", oracle.Estimate, res.Estimate, eng)
		}
		if oracle.Metrics != res.Metrics {
			t.Errorf("weighted diameter metrics differ between legacy and %s", eng)
		}
	}
}
