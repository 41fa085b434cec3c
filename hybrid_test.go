package hybrid_test

import (
	"math"
	"math/rand"
	"strings"
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

// TestFacadeDiameterRefusesWeightedGraph: Diameter estimates the hop
// diameter of an unweighted graph, so an edge whose weight is not 1 is an
// error naming the first such edge, where a weighted path used to get an
// estimate far above its spec's bound. WeightedDiameterApprox still answers.
func TestFacadeDiameterRefusesWeightedGraph(t *testing.T) {
	g := hybrid.PathGraph(8).Reweight(func(u, _ int, w int64) int64 {
		if u == 3 || u == 5 {
			return 4
		}
		return w
	})
	net := hybrid.New(g, hybrid.WithSeed(1))
	for _, spec := range []hybrid.DiameterSpec{hybrid.DiamCor52(0.5), hybrid.DiamCor53(0.5), hybrid.DiamRealMM(2)} {
		if _, err := net.Diameter(spec); err == nil || !strings.Contains(err.Error(), "edge {3,4} weighs 4") {
			t.Errorf("%s on a weighted path: err %v, want one naming edge {3,4}", spec.Name(), err)
		}
	}
	if _, err := net.WeightedDiameterApprox(); err != nil {
		t.Errorf("WeightedDiameterApprox: %v", err)
	}
}

// TestFacadeSpecDefaultsOutOfRangeEps: an ε outside (0, +Inf) is the
// default 0.5 in every ε constructor, in its name and guarantee and in what
// runs (checked on one k-SSP and one diameter spec at NaN, whose ηh and
// declared cost went through int(NaN) before). The RealMM constructors run
// an η below 1 as 1 and name it so.
func TestFacadeSpecDefaultsOutOfRangeEps(t *testing.T) {
	type named interface {
		Name() string
		Guarantee() string
	}
	ctors := map[string]func(float64) named{
		"Cor46":     func(e float64) named { return hybrid.Cor46(e) },
		"Cor47":     func(e float64) named { return hybrid.Cor47(e) },
		"Cor48":     func(e float64) named { return hybrid.Cor48(e) },
		"DiamCor52": func(e float64) named { return hybrid.DiamCor52(e) },
		"DiamCor53": func(e float64) named { return hybrid.DiamCor53(e) },
	}
	for name, ctor := range ctors {
		want := ctor(0.5)
		for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			if got := ctor(eps); got.Name() != want.Name() || got.Guarantee() != want.Guarantee() {
				t.Errorf("%s(%v) = %q, %q; want the default's %q, %q", name, eps, got.Name(), got.Guarantee(), want.Name(), want.Guarantee())
			}
		}
	}
	g := hybrid.GridGraph(5, 5)
	kssp := func(s hybrid.KSSPSpec) hybrid.Metrics {
		res, err := hybrid.New(g, hybrid.WithSeed(2)).KSSP([]int{0, 12}, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res.Metrics
	}
	diam := func(s hybrid.DiameterSpec) hybrid.Metrics {
		res, err := hybrid.New(g, hybrid.WithSeed(2)).Diameter(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res.Metrics
	}
	if got, want := kssp(hybrid.Cor46(math.NaN())), kssp(hybrid.Cor46(0.5)); got != want {
		t.Errorf("Cor46(NaN) ran %+v, Cor46(0.5) %+v", got, want)
	}
	if got, want := diam(hybrid.DiamCor52(math.NaN())), diam(hybrid.DiamCor52(0.5)); got != want {
		t.Errorf("DiamCor52(NaN) ran %+v, DiamCor52(0.5) %+v", got, want)
	}
	for _, c := range []struct {
		s    named
		want string
	}{
		{hybrid.KSSPRealMM(0.5), "RealMM(η=1)"},
		{hybrid.KSSPRealMM(0), "RealMM(η=2)"},
		{hybrid.KSSPRealMM(math.NaN()), "RealMM(η=2)"},
		{hybrid.DiamRealMM(0.25), "RealMM(η=1)"},
		{hybrid.DiamRealMM(math.Inf(1)), "RealMM(η=2)"},
	} {
		if c.s.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.s.Name(), c.want)
		}
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
