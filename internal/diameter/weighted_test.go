package diameter

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/sim"
)

func TestWeightedApproxFactorTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"weighted grid", graph.WithRandomWeights(graph.Grid(7, 7), 9, rng)},
		{"weighted path", graph.WithRandomWeights(graph.Path(80), 5, rng)},
		{"weighted sparse", graph.WithRandomWeights(graph.SparseConnected(90, 1.2, rng), 12, rng)},
		{"unweighted cycle", graph.Cycle(60)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, _, err := sim.RunPipeline(tt.g, sim.Config{Seed: 7}, WeightedApproxPipeline(kssp.Corollary49(), kssp.Params{}))
			if err != nil {
				t.Fatal(err)
			}
			want := graph.WeightedDiameter(tt.g)
			for v, est := range out {
				if est < want {
					t.Fatalf("node %d underestimates weighted D: %d < %d", v, est, want)
				}
				if est > 2*want {
					t.Fatalf("node %d estimate %d > 2*D = %d", v, est, 2*want)
				}
			}
			for v := 1; v < len(out); v++ {
				if out[v] != out[0] {
					t.Fatalf("estimates disagree")
				}
			}
		})
	}
}

func TestWeightedApproxTightOnStar(t *testing.T) {
	// On a star the eccentricity of the center is 1 and D = 2: the doubled
	// eccentricity from a leaf gives between D and 2D regardless of which
	// node is the SSSP source (we use node 0 = center here).
	g := graph.Star(20)
	out, _, err := sim.RunPipeline(g, sim.Config{Seed: 9}, WeightedApproxPipeline(kssp.Corollary49(), kssp.Params{}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Fatalf("estimate = %d, want 2 (= 2*ecc(center) = exact D)", out[0])
	}
}
