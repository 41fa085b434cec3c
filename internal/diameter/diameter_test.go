package diameter

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func runDiameter(t *testing.T, g *graph.Graph, spec AlgSpec, params Params, seed int64) ([]int64, sim.Metrics) {
	t.Helper()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, Pipeline(spec, params))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

func checkAll(t *testing.T, g *graph.Graph, got []int64, bound float64) {
	t.Helper()
	want := graph.HopDiameter(g)
	for v, est := range got {
		if est < want {
			t.Fatalf("node %d underestimates D: %d < %d", v, est, want)
		}
		if float64(est) > bound*float64(want) {
			t.Fatalf("node %d estimate %d exceeds %.2f*D = %.1f (D=%d)", v, est, bound, bound*float64(want), want)
		}
	}
	// All nodes must agree (the problem statement requires every node to
	// learn D~).
	for v := 1; v < len(got); v++ {
		if got[v] != got[0] {
			t.Fatalf("nodes disagree on D~: %d vs %d", got[v], got[0])
		}
	}
}

func TestSmallDiameterExact(t *testing.T) {
	// D <= ηh: Equation (3) returns ĥ = D exactly.
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 7x7", graph.Grid(7, 7)},
		{"star", graph.Star(40)},
		{"complete", graph.Complete(30)},
		{"barbell short bridge", graph.Barbell(15, 4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _ := runDiameter(t, tt.g, Corollary52(0.5, 0), Params{}, 3)
			want := graph.HopDiameter(tt.g)
			for v, est := range got {
				if est != want {
					t.Fatalf("node %d: D~ = %d, want exact %d", v, est, want)
				}
			}
		})
	}
}

func TestLargeDiameterWithinBound(t *testing.T) {
	// D > ηh: the skeleton estimate + 2h path. With exact oracle outputs
	// the end-to-end factor is (1 + 2/η).
	tests := []struct {
		name  string
		g     *graph.Graph
		spec  AlgSpec
		bound float64
	}{
		{"path cor52", graph.Path(150), Corollary52(0.5, 0), 1.5 + 0.5 + 2*0.5},
		{"cycle cor53", graph.Cycle(140), Corollary53(0.5, 0), 1 + 0.5 + 2*0.5},
		{"long barbell", graph.Barbell(10, 120), Corollary52(0.25, 0), 2.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _ := runDiameter(t, tt.g, tt.spec, Params{}, 5)
			checkAll(t, tt.g, got, tt.bound)
		})
	}
}

func TestPerturbedOracleStillWithinTheoremBound(t *testing.T) {
	// Oracle at its declared worst case (α = 3/2+ε on the skeleton):
	// Theorem 5.1 bound (α + 2/η + β/T_B); β = W <= h on unweighted
	// skeletons is folded in by the corollary's analysis, adding 2ε.
	g := graph.Path(160)
	eps := 0.25
	got, _ := runDiameter(t, g, Corollary52(eps, 77), Params{}, 7)
	bound := 1.5 + eps + 2*eps + 2*eps + 0.2 // Corollary 5.2's (3/2 + 4ε) plus small-n slack
	checkAll(t, g, got, bound)
}

func TestRealMMDiameter(t *testing.T) {
	// Fully message-passing: exact skeleton diameter via MM; (1+2/η) bound.
	rng := rand.New(rand.NewSource(9))
	g := graph.SparseConnected(90, 0.3, rng)
	got, _ := runDiameter(t, g, RealMM(2), Params{}, 11)
	checkAll(t, g, got, 2.0)
}

func TestCheckEstimate(t *testing.T) {
	g := graph.Path(10) // D = 9
	tests := []struct {
		est   int64
		bound float64
		want  bool
	}{
		{9, 1.0, true},
		{8, 2.0, false}, // underestimate
		{13, 1.5, true},
		{14, 1.5, false},
	}
	for _, tt := range tests {
		if _, ok := CheckEstimate(g, tt.est, tt.bound); ok != tt.want {
			t.Fatalf("CheckEstimate(%d, %v) = %v, want %v", tt.est, tt.bound, ok, tt.want)
		}
	}
}

func TestDiameterDeterminism(t *testing.T) {
	g := graph.Grid(6, 8)
	a, m1 := runDiameter(t, g, Corollary52(0.5, 0), Params{}, 13)
	b, m2 := runDiameter(t, g, Corollary52(0.5, 0), Params{}, 13)
	if m1.Rounds != m2.Rounds || a[0] != b[0] {
		t.Fatalf("identical runs diverged")
	}
}
