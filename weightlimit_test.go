package hybrid_test

import (
	"fmt"
	"strings"
	"testing"

	hybrid "repro"
)

// TestPipelinesAtWeightLimit runs the algorithms on a path with every edge
// at WeightLimit, the largest weight an input graph may carry. The machines
// build smaller graphs of their own (skeleton graphs, the clique oracle's
// graph) whose edges are multi-hop distances of the input, so their weights
// exceed the limit that the input's node count sets for them; every run
// must still finish and report finite distances, and the exact algorithms
// the exact ones, although they are far past float64's 53 bits.
func TestPipelinesAtWeightLimit(t *testing.T) {
	const n = 48
	base := hybrid.PathGraph(n)
	lim := base.WeightLimit()
	g := base.Reweight(func(_, _ int, _ int64) int64 { return lim })
	exact := hybrid.ExactAPSP(g)
	if exact[0][n-1] != int64(n-1)*lim || exact[0][n-1] >= hybrid.Inf {
		t.Fatalf("exact end-to-end distance %d, want %d < Inf", exact[0][n-1], int64(n-1)*lim)
	}
	net := hybrid.New(g, hybrid.WithSeed(3))

	for name, run := range map[string]func() (*hybrid.APSPResult, error){
		"APSP":         net.APSP,
		"APSPBaseline": net.APSPBaseline,
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for u := range n {
			for v := range n {
				if res.Dist[u][v] != exact[u][v] {
					t.Fatalf("%s: d(%d,%d) = %d, want %d", name, u, v, res.Dist[u][v], exact[u][v])
				}
			}
		}
	}

	sssp, err := net.SSSP(0)
	if err != nil {
		t.Fatalf("SSSP: %v", err)
	}
	for v, d := range sssp.Dist {
		if d != exact[0][v] {
			t.Fatalf("SSSP: d(0,%d) = %d, want %d", v, d, exact[0][v])
		}
	}

	sources := []int{0, n / 3, n - 1}
	for _, spec := range []hybrid.KSSPSpec{hybrid.Cor46(0.5), hybrid.Cor47(0.5), hybrid.Cor48(0.5), hybrid.KSSPRealMM(2)} {
		res, err := net.KSSP(sources, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		for v := range n {
			for _, s := range sources {
				if d := res.Dist[v][s]; d < exact[v][s] || d >= hybrid.Inf {
					t.Fatalf("%s: d~(%d,%d) = %d, want finite and at least %d", spec.Name(), v, s, d, exact[v][s])
				}
			}
		}
	}

	diam, err := net.WeightedDiameterApprox()
	if err != nil {
		t.Fatalf("WeightedDiameterApprox: %v", err)
	}
	if dw := exact[0][n-1]; diam.Estimate < dw || diam.Estimate > 2*dw {
		t.Fatalf("WeightedDiameterApprox = %d, want in [%d, %d]", diam.Estimate, dw, 2*dw)
	}

	// One edge at WeightLimit+1: every entry point refuses the graph, naming
	// the edge and the limit, instead of answering with Inf distances.
	heavy := hybrid.New(base.Reweight(func(u, _ int, _ int64) int64 {
		if u == n/2 {
			return lim + 1
		}
		return lim
	}), hybrid.WithSeed(3))
	want := fmt.Sprintf("edge {%d,%d} weighs %d, above %d,", n/2, n/2+1, lim+1, lim)
	for name, run := range map[string]func() error{
		"APSP":                   func() error { _, err := heavy.APSP(); return err },
		"APSPBaseline":           func() error { _, err := heavy.APSPBaseline(); return err },
		"APSPLocalOnly":          func() error { _, err := heavy.APSPLocalOnly(n); return err },
		"SSSP":                   func() error { _, err := heavy.SSSP(0); return err },
		"KSSP":                   func() error { _, err := heavy.KSSP(sources, hybrid.Cor46(0.5)); return err },
		"Diameter":               func() error { _, err := heavy.Diameter(hybrid.DiamCor52(0.5)); return err },
		"WeightedDiameterApprox": func() error { _, err := heavy.WeightedDiameterApprox(); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s at WeightLimit+1: err %v, want one containing %q", name, err, want)
		}
	}
}
