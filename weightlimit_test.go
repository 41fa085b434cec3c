package hybrid_test

import (
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
}
