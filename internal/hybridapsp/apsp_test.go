package hybridapsp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// runAPSP executes an APSP variant on g and checks exactness everywhere.
func runAPSP(t *testing.T, g *graph.Graph, variant sim.Pipeline[[]int64], seed int64) sim.Metrics {
	t.Helper()
	n := g.N()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, variant)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.APSP(g)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if out[u][v] != want[u][v] {
				t.Fatalf("d(%d,%d) = %d, want %d", u, v, out[u][v], want[u][v])
			}
		}
	}
	return m
}

func TestTheorem11Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 8x8", graph.Grid(8, 8)},
		{"grid weighted", graph.WithRandomWeights(graph.Grid(7, 9), 9, rng)},
		{"sparse 100", graph.SparseConnected(100, 1.5, rng)},
		{"sparse weighted 90", graph.WithRandomWeights(graph.SparseConnected(90, 1.2, rng), 15, rng)},
		{"cycle 64", graph.Cycle(64)},
		{"path 50", graph.Path(50)},
		{"barbell", graph.Barbell(20, 14)},
		{"caterpillar", graph.Caterpillar(12, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			runAPSP(t, tt.g, Pipeline(Params{}), 7)
		})
	}
}

func TestBaselineExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 8x8", graph.Grid(8, 8)},
		{"sparse weighted", graph.WithRandomWeights(graph.SparseConnected(80, 1.5, rng), 10, rng)},
		{"cycle 48", graph.Cycle(48)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			runAPSP(t, tt.g, BaselinePipeline(Params{}), 11)
		})
	}
}

func TestLocalBaselineExact(t *testing.T) {
	g := graph.Grid(6, 6)
	d := int(graph.HopDiameter(g))
	runAPSP(t, g, LocalPipeline(d), 13)
}

func TestLocalBaselineNeedsDiameterRounds(t *testing.T) {
	// With fewer than D rounds the pure-LOCAL baseline cannot be complete —
	// the Θ(D) lower bound of §1 in action.
	g := graph.Path(30)
	n := g.N()
	out, _, err := sim.RunPipeline(g, sim.Config{Seed: 17}, LocalPipeline(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0][n-1] != graph.Inf {
		t.Fatal("pure-LOCAL run with 5 rounds resolved a 29-hop pair; impossible")
	}
}

func TestTheorem11SqrtScaling(t *testing.T) {
	// Theorem 1.1 claims O~(sqrt(n)) rounds. At laptop-scale n the polylog
	// factors dominate constants (experiment E3 prints the absolute
	// numbers), so the meaningful assertions are (a) an absolute O~ bound
	// with a generous constant and (b) sqrt-like growth: quadrupling n must
	// far less than quadruple the rounds, while the Θ(D) LOCAL baseline
	// quadruples exactly on paths.
	if testing.Short() {
		t.Skip("scaling check skipped in -short mode")
	}
	rounds := map[int]int{}
	for _, n := range []int{96, 384} {
		g := graph.Path(n)
		m := runAPSP(t, g, Pipeline(Params{}), 19)
		rounds[n] = m.Rounds
		logN := float64(sim.Log2Ceil(n))
		bound := 8 * sqrtF(n) * logN * logN
		if float64(m.Rounds) > bound {
			t.Fatalf("n=%d took %d rounds, above the O~(sqrt n) envelope %.0f", n, m.Rounds, bound)
		}
	}
	ratio := float64(rounds[384]) / float64(rounds[96])
	if ratio > 3.0 {
		t.Fatalf("4x nodes grew rounds by %.2fx (%d -> %d); want ~2x (sqrt scaling)",
			ratio, rounds[96], rounds[384])
	}
}

func sqrtF(n int) float64 {
	r := 1.0
	for i := 0; i < 30; i++ {
		r = (r + float64(n)/r) / 2
	}
	return r
}

func TestDeterministicAPSP(t *testing.T) {
	g := graph.Grid(6, 6)
	m1 := runAPSP(t, g, Pipeline(Params{}), 23)
	m2 := runAPSP(t, g, Pipeline(Params{}), 23)
	if m1.Rounds != m2.Rounds || m1.GlobalMsgs != m2.GlobalMsgs {
		t.Fatalf("identical runs diverged: %+v vs %+v", m1, m2)
	}
}

func TestRecvLoadLemmaD2(t *testing.T) {
	g := graph.Grid(9, 9)
	m := runAPSP(t, g, Pipeline(Params{}), 29)
	logN := sim.Log2Ceil(g.N())
	if m.MaxGlobalRecv > 10*logN {
		t.Fatalf("max global receive load %d exceeds 10 log n = %d", m.MaxGlobalRecv, 10*logN)
	}
}
