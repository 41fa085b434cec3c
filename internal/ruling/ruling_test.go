package ruling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

// membership is the protocol as a sim.Pipeline yielding InSet.
func membership(mu int) sim.Pipeline[bool] {
	return func(env *sim.Env, done func(bool)) sim.StepProgram {
		m := NewMachine(env, mu)
		return sim.Then(m, func(*sim.Env) { done(m.InSet) })
	}
}

func computeRulers(t *testing.T, g *graph.Graph, mu int) []bool {
	t.Helper()
	rulers, m, err := sim.RunPipeline(g, sim.Config{Seed: 1}, membership(mu))
	if err != nil {
		t.Fatal(err)
	}
	if want := Rounds(g.N(), mu); m.Rounds != want {
		t.Fatalf("the machine took %d rounds, want exactly %d", m.Rounds, want)
	}
	if m.GlobalMsgs != 0 {
		t.Fatalf("ruling set used %d global messages; Lemma 2.1 is local-only", m.GlobalMsgs)
	}
	return rulers
}

func TestRulingSetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name string
		g    *graph.Graph
		mu   int
	}{
		{"path mu=1", graph.Path(40), 1},
		{"path mu=3", graph.Path(60), 3},
		{"cycle mu=2", graph.Cycle(50), 2},
		{"grid mu=1", graph.Grid(7, 8), 1},
		{"grid mu=2", graph.Grid(9, 9), 2},
		{"complete mu=2", graph.Complete(20), 2},
		{"star mu=1", graph.Star(30), 1},
		{"sparse mu=2", graph.SparseConnected(70, 1, rng), 2},
		{"barbell mu=2", graph.Barbell(15, 12), 2},
		{"tree mu=3", graph.RandomTree(80, rng), 3},
		{"single node", graph.New(1), 1},
		{"two nodes", graph.Path(2), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rulers := computeRulers(t, tt.g, tt.mu)
			alpha := 2*tt.mu + 1
			beta := 2 * tt.mu * sim.Log2Ceil(tt.g.N())
			if err := Check(tt.g, rulers, alpha, beta); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompleteGraphSingleRuler(t *testing.T) {
	// In K_n any two nodes are 1 hop apart, so a (2µ+1 >= 3)-separated
	// ruling set has exactly one member.
	g := graph.Complete(16)
	rulers := computeRulers(t, g, 1)
	count := 0
	for _, r := range rulers {
		if r {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("K16 ruling set has %d rulers, want 1", count)
	}
}

func TestMuClamping(t *testing.T) {
	g := graph.Path(8)
	rulers, _, err := sim.RunPipeline(g, sim.Config{Seed: 1}, membership(0)) // clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, rulers, 3, 2*sim.Log2Ceil(8)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsBadSets(t *testing.T) {
	g := graph.Path(10)
	tests := []struct {
		name   string
		rulers []bool
		alpha  int
		beta   int
	}{
		{"empty", make([]bool, 10), 3, 5},
		{"too close", func() []bool {
			r := make([]bool, 10)
			r[0], r[1] = true, true
			return r
		}(), 3, 9},
		{"no domination", func() []bool {
			r := make([]bool, 10)
			r[0] = true
			return r
		}(), 3, 2},
		{"wrong length", make([]bool, 3), 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Check(g, tt.rulers, tt.alpha, tt.beta); err == nil {
				t.Fatal("Check accepted an invalid ruling set")
			}
		})
	}
}

func TestCheckAcceptsValidManualSet(t *testing.T) {
	g := graph.Path(10)
	r := make([]bool, 10)
	r[0], r[5] = true, true
	if err := Check(g, r, 3, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRoundsFormula(t *testing.T) {
	tests := []struct{ n, mu, want int }{
		{8, 1, 6},
		{8, 2, 12},
		{100, 3, 42},
		{2, 0, 2}, // mu clamped to 1
	}
	for _, tt := range tests {
		if got := Rounds(tt.n, tt.mu); got != tt.want {
			t.Fatalf("Rounds(%d,%d) = %d, want %d", tt.n, tt.mu, got, tt.want)
		}
	}
}

// Property: on random connected graphs the distributed result always
// verifies against the sequential checker.
func TestQuickRulingSetAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw uint8, muRaw uint8) bool {
		n := 4 + int(nRaw%60)
		mu := 1 + int(muRaw%3)
		rng := rand.New(rand.NewSource(seed))
		g := graph.SparseConnected(n, 0.5, rng)
		rulers, _, err := sim.RunPipeline(g, sim.Config{Seed: seed}, membership(mu))
		if err != nil {
			return false
		}
		return Check(g, rulers, 2*mu+1, 2*mu*sim.Log2Ceil(n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
