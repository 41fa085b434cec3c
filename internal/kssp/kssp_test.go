package kssp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// runKSSP executes the framework with the given spec and source set and
// returns per-node estimate maps plus metrics.
func runKSSP(t *testing.T, g *graph.Graph, sources []int, spec AlgSpec, params Params, seed int64) ([]map[int]int64, sim.Metrics) {
	t.Helper()
	n := g.N()
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	res, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, Pipeline(isSource, len(sources), spec, params))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]map[int]int64, n)
	for v := range res {
		out[v] = make(map[int]int64, len(res[v]))
		for _, sd := range res[v] {
			out[v][sd.Source] = sd.Dist
		}
	}
	return out, m
}

// checkApprox verifies d <= d~ <= bound(d) for every (node, source) pair.
func checkApprox(t *testing.T, g *graph.Graph, sources []int, got []map[int]int64, alpha float64, beta int64) {
	t.Helper()
	for _, s := range sources {
		want := graph.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			dt, ok := got[v][s]
			if !ok {
				t.Fatalf("node %d has no estimate for source %d", v, s)
			}
			d := want[v]
			if dt < d {
				t.Fatalf("node %d underestimates d(%d): %d < %d", v, s, dt, d)
			}
			if float64(dt) > alpha*float64(d)+float64(beta) {
				t.Fatalf("node %d estimate for %d is %d > %.1f*%d+%d", v, s, dt, alpha, d, beta)
			}
		}
	}
}

func TestSSSPExactOracle(t *testing.T) {
	// Corollary 4.9 / Theorem 1.3: exact SSSP (α = 1 single source).
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		g    *graph.Graph
		src  int
	}{
		{"grid", graph.Grid(8, 8), 17},
		{"grid weighted", graph.WithRandomWeights(graph.Grid(7, 8), 9, rng), 3},
		{"sparse weighted", graph.WithRandomWeights(graph.SparseConnected(90, 1.3, rng), 12, rng), 40},
		{"path", graph.Path(60), 0},
		{"cycle", graph.Cycle(50), 25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _ := runKSSP(t, tt.g, []int{tt.src}, Corollary49(), Params{}, 5)
			checkApprox(t, tt.g, []int{tt.src}, got, 1, 0)
		})
	}
}

func TestKSSPWeightedBoundExactAPSPOracle(t *testing.T) {
	// With an exact APSP CLIQUE algorithm (α = 1, β = 0) the weighted bound
	// of Theorem 4.1 is (2α+1) = 3.
	rng := rand.New(rand.NewSource(3))
	g := graph.WithRandomWeights(graph.SparseConnected(100, 1.4, rng), 10, rng)
	srcRng := rand.New(rand.NewSource(11))
	var sources []int
	for v := 0; v < g.N(); v++ {
		if srcRng.Float64() < 0.08 {
			sources = append(sources, v)
		}
	}
	if len(sources) == 0 {
		sources = []int{0}
	}
	spec := Corollary47(0.5, 0) // α = 3+2ε exact-output oracle (no perturbation)
	got, _ := runKSSP(t, g, sources, spec, Params{}, 13)
	// Oracle emits exact values (PerturbSeed 0), so the end-to-end factor
	// is bounded by the α=1 analysis: 3.
	checkApprox(t, g, sources, got, 3, 0)
}

func TestKSSPPerturbedOracleWithinTheorem41Bound(t *testing.T) {
	// Perturbed oracle at its declared α: end-to-end bound (2α+1+β/T_B).
	rng := rand.New(rand.NewSource(5))
	g := graph.WithRandomWeights(graph.SparseConnected(80, 1.5, rng), 8, rng)
	sources := []int{5, 33, 61}
	eps := 0.5
	spec := Corollary46(eps, 99)
	got, _ := runKSSP(t, g, sources, spec, Params{}, 17)
	alphaA := 1 + eps
	bound := 2*alphaA + 1
	checkApprox(t, g, sources, got, bound, 0)
}

func TestKSSPUnweightedCloseToExact(t *testing.T) {
	// Unweighted bound (α + 2/η): with exact A and η = 4 the factor is 1.5.
	g := graph.Grid(9, 9)
	sources := []int{0, 40, 80}
	spec := Corollary46(0.25, 0) // η = 4, exact outputs
	got, _ := runKSSP(t, g, sources, spec, Params{}, 19)
	checkApprox(t, g, sources, got, 1.5, 0)
}

func TestKSSPRealMM(t *testing.T) {
	// Fully message-passing pipeline: MM on the skeleton, x = 6/11.
	rng := rand.New(rand.NewSource(7))
	g := graph.WithRandomWeights(graph.Grid(7, 7), 5, rng)
	sources := []int{0, 24, 48}
	got, _ := runKSSP(t, g, sources, RealMM(2), Params{}, 23)
	checkApprox(t, g, sources, got, 3, 0)
}

func TestSingleSourceSummonedIntoSkeleton(t *testing.T) {
	// γ = 0: even a source in a remote corner is exact.
	g := graph.Path(70)
	got, _ := runKSSP(t, g, []int{69}, Corollary49(), Params{}, 29)
	checkApprox(t, g, []int{69}, got, 1, 0)
}

func TestManySourcesLemma44(t *testing.T) {
	// Arbitrary k with an APSP oracle (Lemma 4.4): k = n/4 sources.
	g := graph.Grid(8, 8)
	var sources []int
	for v := 0; v < g.N(); v += 4 {
		sources = append(sources, v)
	}
	got, _ := runKSSP(t, g, sources, Corollary47(1, 0), Params{}, 31)
	checkApprox(t, g, sources, got, 3, 0)
}

func TestFrameworkDeterminism(t *testing.T) {
	g := graph.Grid(6, 6)
	spec := Corollary46(0.5, 0)
	a, m1 := runKSSP(t, g, []int{0, 18}, spec, Params{}, 37)
	b, m2 := runKSSP(t, g, []int{0, 18}, spec, Params{}, 37)
	if m1.Rounds != m2.Rounds {
		t.Fatalf("rounds differ between identical runs: %d vs %d", m1.Rounds, m2.Rounds)
	}
	for v := range a {
		for s, d := range a[v] {
			if b[v][s] != d {
				t.Fatalf("node %d source %d: %d vs %d", v, s, d, b[v][s])
			}
		}
	}
}

func TestXDerivation(t *testing.T) {
	// x = 2/(3+2δ): Cor 4.9 (δ=1/6) => x = 3/5 => runtime exponent 2/5.
	tests := []struct {
		delta float64
		wantX float64
	}{
		{0, 2.0 / 3.0},
		{1.0 / 6.0, 0.6},
		{1.0 / 3.0, 6.0 / 11.0},
		{Rho, 2 / (3 + 2*Rho)},
	}
	for _, tt := range tests {
		x := 2 / (3 + 2*tt.delta)
		if diff := x - tt.wantX; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("x(δ=%v) = %v, want %v", tt.delta, x, tt.wantX)
		}
	}
}

func TestSourceDistOutputSorted(t *testing.T) {
	g := graph.Grid(5, 5)
	sources := []int{20, 3, 11}
	n := g.N()
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	res, _, err := sim.RunPipeline(g, sim.Config{Seed: 47}, Pipeline(isSource, len(sources), Corollary46(0.5, 0), Params{}))
	if err != nil {
		t.Fatal(err)
	}
	out := res[0]
	if len(out) != len(sources) {
		t.Fatalf("got %d entries, want %d", len(out), len(sources))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Source <= out[i-1].Source {
			t.Fatalf("output not sorted by source: %v", out)
		}
	}
}
