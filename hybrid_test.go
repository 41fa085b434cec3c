package hybrid_test

import (
	"math/rand"
	"testing"

	hybrid "repro"
	"repro/internal/routing"
)

func TestFacadeAPSP(t *testing.T) {
	g := hybrid.GridGraph(7, 7)
	net := hybrid.New(g, hybrid.WithSeed(1))
	res, err := net.APSP()
	if err != nil {
		t.Fatal(err)
	}
	want := hybrid.ExactAPSP(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[u][v] != want[u][v] {
				t.Fatalf("d(%d,%d) = %d, want %d", u, v, res.Dist[u][v], want[u][v])
			}
		}
	}
	if res.Metrics.Rounds == 0 {
		t.Fatal("metrics missing")
	}
}

func TestFacadeAPSPBaselineAndLocal(t *testing.T) {
	g := hybrid.CycleGraph(40)
	net := hybrid.New(g, hybrid.WithSeed(2))
	want := hybrid.ExactAPSP(g)

	base, err := net.APSPBaseline()
	if err != nil {
		t.Fatal(err)
	}
	local, err := net.APSPLocalOnly(int(hybrid.HopDiameter(g)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if base.Dist[u][v] != want[u][v] {
				t.Fatalf("baseline d(%d,%d) wrong", u, v)
			}
			if local.Dist[u][v] != want[u][v] {
				t.Fatalf("local d(%d,%d) wrong", u, v)
			}
		}
	}
}

func TestFacadeSSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := hybrid.WithRandomWeights(hybrid.GridGraph(6, 7), 9, rng)
	net := hybrid.New(g, hybrid.WithSeed(3))
	res, err := net.SSSP(11)
	if err != nil {
		t.Fatal(err)
	}
	want := hybrid.Dijkstra(g, 11)
	for v := 0; v < g.N(); v++ {
		if res.Dist[v] != want[v] {
			t.Fatalf("SSSP d(%d) = %d, want %d", v, res.Dist[v], want[v])
		}
	}
}

func TestFacadeSSSPBadSource(t *testing.T) {
	net := hybrid.New(hybrid.PathGraph(5))
	if _, err := net.SSSP(99); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
}

func TestFacadeKSSPVariants(t *testing.T) {
	g := hybrid.GridGraph(7, 7)
	sources := []int{0, 24, 48}
	for _, spec := range []hybrid.KSSPSpec{hybrid.Cor46(0.5), hybrid.Cor47(0.5), hybrid.Cor48(0.5)} {
		net := hybrid.New(g, hybrid.WithSeed(4))
		res, err := net.KSSP(sources, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if res.Algorithm != spec.Name() || res.Guarantee == "" {
			t.Fatalf("%s: result not tagged with spec name/guarantee", spec.Name())
		}
		for _, s := range sources {
			want := hybrid.Dijkstra(g, s)
			for v := 0; v < g.N(); v++ {
				dt := res.Dist[v][s]
				if dt < want[v] || dt > 8*want[v]+8 {
					t.Fatalf("%s: d~(%d,%d) = %d vs true %d", spec.Name(), v, s, dt, want[v])
				}
			}
		}
	}
}

func TestFacadeKSSPUnknownVariant(t *testing.T) {
	net := hybrid.New(hybrid.PathGraph(4))
	if _, err := net.KSSP([]int{0}, hybrid.KSSPSpec{}); err == nil {
		t.Fatal("expected error for zero-value k-SSP spec")
	}
	if _, err := net.Diameter(hybrid.DiameterSpec{}); err == nil {
		t.Fatal("expected error for zero-value diameter spec")
	}
}

func TestFacadeDiameter(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	d := hybrid.HopDiameter(g)
	for _, spec := range []hybrid.DiameterSpec{hybrid.DiamCor52(0.5), hybrid.DiamCor53(0.5)} {
		net := hybrid.New(g, hybrid.WithSeed(5))
		res, err := net.Diameter(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if res.Estimate < d || res.Estimate > 3*d {
			t.Fatalf("%s: estimate %d vs true %d", spec.Name(), res.Estimate, d)
		}
		if res.Algorithm != spec.Name() || res.Guarantee == "" {
			t.Fatalf("%s: result not tagged with spec name/guarantee", spec.Name())
		}
	}
}

func TestFacadeTokenRouting(t *testing.T) {
	g := hybrid.GridGraph(5, 5)
	n := g.N()
	specs := make([]routing.Spec, n)
	tok := routing.Token{Label: routing.Label{S: 2, R: 22, I: 0}, Value: 77}
	specs[2].Send = []routing.Token{tok}
	specs[2].InS = true
	specs[22].Expect = []routing.Label{tok.Label}
	specs[22].InR = true
	for v := range specs {
		specs[v].KS, specs[v].KR = 1, 1
		specs[v].PS, specs[v].PR = 0.1, 0.1
	}
	net := hybrid.New(g, hybrid.WithSeed(6))
	got, m, err := net.TokenRouting(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[22]) != 1 || got[22][0].Value != 77 {
		t.Fatalf("receiver got %v", got[22])
	}
	if m.Rounds == 0 {
		t.Fatal("metrics missing")
	}
}

func TestFacadeGammaGraph(t *testing.T) {
	a := make([]bool, 4)
	b := make([]bool, 4)
	g, err := hybrid.GammaGraph(2, 3, 9, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint instance: weighted diameter <= W+2l = 15 (Lemma 7.1).
	if d := hybrid.WeightedDiameter(g); d > 15 {
		t.Fatalf("disjoint Gamma diameter %d > 15", d)
	}
}

func TestFacadeCutOption(t *testing.T) {
	g := hybrid.PathGraph(8)
	cut := make([]bool, 8)
	for i := 0; i < 4; i++ {
		cut[i] = true
	}
	net := hybrid.New(g, hybrid.WithSeed(7), hybrid.WithCut(cut))
	res, err := net.APSP()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CutGlobalMsgs == 0 {
		t.Fatal("cut accounting produced zero crossings for APSP on a split path")
	}
}

func TestFacadeWeightedDiameterApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := hybrid.WithRandomWeights(hybrid.GridGraph(6, 6), 7, rng)
	net := hybrid.New(g, hybrid.WithSeed(11))
	res, err := net.WeightedDiameterApprox()
	if err != nil {
		t.Fatal(err)
	}
	d := hybrid.WeightedDiameter(g)
	if res.Estimate < d || res.Estimate > 2*d {
		t.Fatalf("estimate %d outside [D, 2D] = [%d, %d]", res.Estimate, d, 2*d)
	}
}
