package clique

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// distancesOf extracts per-node distance vectors from finished nodes.
func distancesOf(t *testing.T, nodes []Node) [][]int64 {
	t.Helper()
	out := make([][]int64, len(nodes))
	for p, n := range nodes {
		dn, ok := n.(DistanceNode)
		if !ok {
			t.Fatalf("node %d does not expose distances", p)
		}
		out[p] = dn.Distances()
	}
	return out
}

func checkKSSP(t *testing.T, g *graph.Graph, sources []int, got [][]int64) {
	t.Helper()
	want := graph.KDistances(g, sources)
	for p := 0; p < g.N(); p++ {
		for si := range sources {
			if got[p][si] != want[p][si] {
				t.Fatalf("node %d dist to source %d = %d, want %d", p, sources[si], got[p][si], want[p][si])
			}
		}
	}
}

func TestMMAPSPExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"single", graph.New(1)},
		{"pair", graph.Path(2)},
		{"triangle heavy edge", func() *graph.Graph {
			g := graph.New(3)
			g.MustAddEdge(0, 1, 10)
			g.MustAddEdge(0, 2, 1)
			g.MustAddEdge(2, 1, 2)
			return g
		}()},
		{"path 9", graph.Path(9)},
		{"cycle 11", graph.Cycle(11)},
		{"grid 4x4", graph.Grid(4, 4)},
		{"weighted sparse 17", graph.WithRandomWeights(graph.SparseConnected(17, 1.5, rng), 12, rng)},
		{"weighted sparse 40", graph.WithRandomWeights(graph.SparseConnected(40, 2, rng), 25, rng)},
		{"star 13", star(13)},
		{"disconnected", func() *graph.Graph {
			g := graph.New(6)
			g.MustAddEdge(0, 1, 2)
			g.MustAddEdge(2, 3, 4)
			g.MustAddEdge(4, 5, 1)
			return g
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			alg := NewMM(tt.g.N(), false)
			nodes, err := Run(alg, AdjacencyInputs(tt.g))
			if err != nil {
				t.Fatal(err)
			}
			got := distancesOf(t, nodes)
			want := graph.APSP(tt.g)
			for u := 0; u < tt.g.N(); u++ {
				for v := 0; v < tt.g.N(); v++ {
					if got[u][v] != want[u][v] {
						t.Fatalf("d(%d,%d) = %d, want %d", u, v, got[u][v], want[u][v])
					}
				}
			}
		})
	}
}

func TestMMDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.WithRandomWeights(graph.SparseConnected(22, 1.2, rng), 9, rng)
	alg := NewMM(g.N(), true)
	nodes, err := Run(alg, AdjacencyInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.WeightedDiameter(g)
	for p, n := range nodes {
		dn, ok := n.(DiameterNode)
		if !ok {
			t.Fatalf("node %d does not expose diameter", p)
		}
		if dn.Diameter() != want {
			t.Fatalf("node %d diameter = %d, want %d", p, dn.Diameter(), want)
		}
	}
}

func TestMMRoundsScaling(t *testing.T) {
	// Rounds should scale clearly sublinearly in q: O(q^(1/3) log q).
	r16 := NewMM(16, false).Rounds()
	r128 := NewMM(128, false).Rounds()
	if r128 > 8*r16 {
		t.Fatalf("MM rounds grew from %d (q=16) to %d (q=128); super-cubic-root growth", r16, r128)
	}
}

func TestMMScheduleRespectsCaps(t *testing.T) {
	// The runner enforces caps; this test exercises a mid-size instance to
	// make sure packing stays legal.
	rng := rand.New(rand.NewSource(5))
	g := graph.WithRandomWeights(graph.SparseConnected(50, 2, rng), 5, rng)
	alg := NewMM(g.N(), false)
	if _, err := Run(alg, AdjacencyInputs(g)); err != nil {
		t.Fatal(err)
	}
}

func TestOracleExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.WithRandomWeights(graph.SparseConnected(25, 1.5, rng), 8, rng)
	sources := []int{1, 7, 13}
	alg := NewOracle(g.N(), sources, CostModel{Delta: 0, Eta: 4}, Quality{Alpha: 1}, false)
	if alg.Rounds() != 4 {
		t.Fatalf("Rounds = %d, want 4", alg.Rounds())
	}
	nodes, err := Run(alg, AdjacencyInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	checkKSSP(t, g, sources, distancesOf(t, nodes))
}

func TestOracleCostModel(t *testing.T) {
	tests := []struct {
		cost CostModel
		q    int
		want int
	}{
		{CostModel{Delta: 0, Eta: 1}, 100, 1},
		{CostModel{Delta: 0.5, Eta: 1}, 100, 10},
		{CostModel{Delta: 1.0 / 6.0, Eta: 1}, 64, 2},
		{CostModel{Delta: 0.15715, Eta: 1}, 1000, 3},
		{CostModel{Delta: 0, Eta: 0}, 5, 1}, // eta clamped
	}
	for _, tt := range tests {
		if got := tt.cost.Rounds(tt.q); got != tt.want {
			t.Fatalf("CostModel%+v.Rounds(%d) = %d, want %d", tt.cost, tt.q, got, tt.want)
		}
	}
}

func TestOraclePerturbedWithinEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.WithRandomWeights(graph.SparseConnected(30, 1.5, rng), 10, rng)
	alpha, beta := 2.0, int64(3)
	alg := NewOracle(g.N(), nil, CostModel{Eta: 1}, Quality{Alpha: alpha, Beta: beta, PerturbSeed: 99}, false)
	nodes, err := Run(alg, AdjacencyInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	got := distancesOf(t, nodes)
	want := graph.APSP(g)
	perturbed := false
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			d, dt := want[u][v], got[u][v]
			if dt < d || float64(dt) > alpha*float64(d)+float64(beta) {
				t.Fatalf("d~(%d,%d) = %d outside [%d, %.0f]", u, v, dt, d, alpha*float64(d)+float64(beta))
			}
			if dt != d {
				perturbed = true
			}
		}
	}
	if !perturbed {
		t.Fatal("perturbation seed produced exact outputs everywhere")
	}
}

func TestOracleDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.WithRandomWeights(graph.SparseConnected(20, 1.5, rng), 6, rng)
	alg := NewOracle(g.N(), nil, CostModel{Eta: 2}, Quality{Alpha: 1}, true)
	nodes, err := Run(alg, AdjacencyInputs(g))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.WeightedDiameter(g)
	for p, n := range nodes {
		if d := n.(DiameterNode).Diameter(); d != want {
			t.Fatalf("node %d oracle diameter = %d, want %d", p, d, want)
		}
	}
}

func TestRunRejectsBadAlgorithms(t *testing.T) {
	g := graph.Path(4)
	t.Run("wrong input count", func(t *testing.T) {
		alg := NewMM(5, false)
		if _, err := Run(alg, AdjacencyInputs(g)); err == nil {
			t.Fatal("Run accepted mismatched input count")
		}
	})
	t.Run("slot value mismatch", func(t *testing.T) {
		if _, err := Run(badAlg{q: 4}, AdjacencyInputs(g)); err == nil {
			t.Fatal("Run accepted slot/value mismatch")
		}
	})
	t.Run("send cap", func(t *testing.T) {
		if _, err := Run(floodAlg{q: 4}, AdjacencyInputs(g)); err == nil {
			t.Fatal("Run accepted over-cap sends")
		}
	})
}

type badAlg struct{ q int }

func (a badAlg) Q() int                                   { return a.q }
func (a badAlg) Rounds() int                              { return 1 }
func (a badAlg) Schedule(r, p int) []Slot                 { return []Slot{{Dst: (p + 1) % a.q}} }
func (a badAlg) NewNode(p int, adj []graph.Neighbor) Node { return badNode{} }

type badNode struct{}

func (badNode) Send(r int) []Value        { return nil } // mismatch: 0 values for 1 slot
func (badNode) Recv(r int, in []Incoming) {}

type floodAlg struct{ q int }

func (a floodAlg) Q() int      { return a.q }
func (a floodAlg) Rounds() int { return 1 }
func (a floodAlg) Schedule(r, p int) []Slot {
	slots := make([]Slot, a.q+1) // one over cap
	for i := range slots {
		slots[i] = Slot{Dst: 0, Tag: int64(i)}
	}
	return slots
}
func (a floodAlg) NewNode(p int, adj []graph.Neighbor) Node { return floodNode{q: a.q} }

type floodNode struct{ q int }

func (n floodNode) Send(r int) []Value        { return make([]Value, n.q+1) }
func (n floodNode) Recv(r int, in []Incoming) {}

// Property: MM matches Dijkstra on random weighted graphs.
func TestQuickMMMatchesDijkstra(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%24)
		rng := rand.New(rand.NewSource(seed))
		g := graph.WithRandomWeights(graph.SparseConnected(n, 1.0, rng), 9, rng)
		alg := NewMM(n, false)
		nodes, err := Run(alg, AdjacencyInputs(g))
		if err != nil {
			return false
		}
		want := graph.APSP(g)
		for p := 0; p < n; p++ {
			got := nodes[p].(DistanceNode).Distances()
			for v := 0; v < n; v++ {
				if got[v] != want[p][v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMM64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.WithRandomWeights(graph.SparseConnected(64, 2, rng), 9, rng)
	inputs := AdjacencyInputs(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(NewMM(64, false), inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScheduleObliviousness: the communication schedule must not depend on
// the input data — the property the HYBRID simulation relies on so that
// receivers can predict their token labels (Corollary 4.1).
func TestScheduleObliviousness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gA := graph.WithRandomWeights(graph.SparseConnected(20, 1.0, rng), 9, rng)
	gB := graph.WithRandomWeights(graph.Cycle(20), 30, rng)
	algs := []struct {
		name string
		mk   func() Algorithm
	}{
		{"mm", func() Algorithm { return NewMM(20, true) }},
		{"oracle", func() Algorithm {
			return NewOracle(20, nil, CostModel{Eta: 3}, Quality{Alpha: 1}, false)
		}},
	}
	for _, ta := range algs {
		t.Run(ta.name, func(t *testing.T) {
			a1, a2 := ta.mk(), ta.mk()
			if a1.Rounds() != a2.Rounds() {
				t.Fatal("round counts differ between instances")
			}
			// Run both on different inputs; schedules must be identical.
			if _, err := Run(a1, AdjacencyInputs(gA)); err != nil {
				t.Fatal(err)
			}
			if _, err := Run(a2, AdjacencyInputs(gB)); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < a1.Rounds(); r++ {
				for p := 0; p < 20; p++ {
					s1, s2 := a1.Schedule(r, p), a2.Schedule(r, p)
					if len(s1) != len(s2) {
						t.Fatalf("round %d node %d: schedule lengths differ", r, p)
					}
					for i := range s1 {
						if s1[i] != s2[i] {
							t.Fatalf("round %d node %d slot %d differs", r, p, i)
						}
					}
				}
			}
		})
	}
}

// TestMMTagsFitRoutingLabels: tags must stay below 2^29 so the HYBRID
// simulation can double them into token-label indices (< 2^30).
func TestMMTagsFitRoutingLabels(t *testing.T) {
	alg := NewMM(100, true)
	for r := 0; r < alg.Rounds(); r++ {
		for p := 0; p < 100; p++ {
			for _, s := range alg.Schedule(r, p) {
				if s.Tag < 0 || s.Tag >= 1<<29 {
					t.Fatalf("tag %d out of range at round %d node %d", s.Tag, r, p)
				}
			}
		}
	}
}

// star returns the star graph with center 0 and unit weights.
func star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	return g
}
