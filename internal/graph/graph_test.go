package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("MaxDegree() = %d, want 0", g.MaxDegree())
	}
	if !g.IsUnweighted() {
		t.Fatal("empty graph should report unweighted")
	}
}

func TestNewNegative(t *testing.T) {
	g := New(-3)
	if g.N() != 0 {
		t.Fatalf("N() = %d, want 0", g.N())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    int
		w       int64
		wantErr bool
	}{
		{"valid", 0, 1, 5, false},
		{"duplicate", 0, 1, 5, true},
		{"duplicate reversed", 1, 0, 5, true},
		{"self loop", 2, 2, 1, true},
		{"out of range low", -1, 0, 1, true},
		{"out of range high", 0, 3, 1, true},
		{"zero weight", 1, 2, 0, true},
		{"negative weight", 1, 2, -4, true},
		{"second valid", 1, 2, 7, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.u, tt.v, tt.w)
			if (err != nil) != tt.wantErr {
				t.Fatalf("AddEdge(%d,%d,%d) error = %v, wantErr=%v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
		})
	}
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
}

func TestWeightLookup(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 2, 9)

	if w, ok := g.Weight(0, 1); !ok || w != 3 {
		t.Fatalf("Weight(0,1) = %d,%v, want 3,true", w, ok)
	}
	if w, ok := g.Weight(1, 0); !ok || w != 3 {
		t.Fatalf("Weight(1,0) = %d,%v, want 3,true", w, ok)
	}
	if _, ok := g.Weight(0, 3); ok {
		t.Fatal("Weight(0,3) should not exist")
	}
	if _, ok := g.Weight(-1, 5); ok {
		t.Fatal("Weight out of range should not exist")
	}
	if !g.HasEdge(2, 1) {
		t.Fatal("HasEdge(2,1) should be true")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge(0,2) should be false")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 3, 4)
	edges := g.Edges()
	want := []Edge{{0, 1, 2}, {1, 3, 4}, {2, 3, 1}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() returned %d edges, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges()[%d] = %+v, want %+v", i, edges[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(5)
	c := g.Clone()
	c.MustAddEdge(0, 4, 1)
	if g.HasEdge(0, 4) {
		t.Fatal("mutating clone affected original")
	}
	if g.M() != 4 || c.M() != 5 {
		t.Fatalf("edge counts g=%d c=%d, want 4 and 5", g.M(), c.M())
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"single", New(1), true},
		{"two isolated", New(2), false},
		{"path", Path(10), true},
		{"cycle", Cycle(6), true},
		{"grid", Grid(4, 5), true},
		{"star", Star(7), true},
		{"disconnected pair of paths", func() *Graph {
			g := New(6)
			g.MustAddEdge(0, 1, 1)
			g.MustAddEdge(1, 2, 1)
			g.MustAddEdge(3, 4, 1)
			g.MustAddEdge(4, 5, 1)
			return g
		}(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Connected(); got != tt.want {
				t.Fatalf("Connected() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValidateGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		g    *Graph
	}{
		{"path", Path(17)},
		{"cycle", Cycle(9)},
		{"grid", Grid(5, 7)},
		{"complete", Complete(12)},
		{"star", Star(20)},
		{"tree", RandomTree(40, rng)},
		{"gnp", GNP(30, 0.2, rng)},
		{"sparse", SparseConnected(50, 1.5, rng)},
		{"geometric", RandomGeometric(40, 0.15, rng)},
		{"barbell", Barbell(6, 5)},
		{"caterpillar", Caterpillar(8, 3)},
		{"weighted grid", WithRandomWeights(Grid(4, 4), 100, rng)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err != nil {
				t.Fatalf("Validate() = %v", err)
			}
			if !tt.g.Connected() {
				t.Fatal("generator should produce connected graph")
			}
		})
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N() = %d, want 12", g.N())
	}
	// Grid edges: rows*(cols-1) + (rows-1)*cols = 3*3 + 2*4 = 17.
	if g.M() != 17 {
		t.Fatalf("M() = %d, want 17", g.M())
	}
	if d := HopDiameter(g); d != 5 {
		t.Fatalf("HopDiameter = %d, want 5 (corner to corner)", d)
	}
}

func TestBarbellShape(t *testing.T) {
	g := Barbell(5, 4)
	if g.N() != 13 {
		t.Fatalf("N() = %d, want 13", g.N())
	}
	// Diameter: across both cliques and the bridge = 1 + 4 + 1 = 6.
	if d := HopDiameter(g); d != 6 {
		t.Fatalf("HopDiameter = %d, want 6", d)
	}
}

func TestCaterpillarShape(t *testing.T) {
	g := Caterpillar(5, 2)
	if g.N() != 15 {
		t.Fatalf("N() = %d, want 15", g.N())
	}
	// Leg to leg across the spine: 1 + 4 + 1 = 6.
	if d := HopDiameter(g); d != 6 {
		t.Fatalf("HopDiameter = %d, want 6", d)
	}
}

func TestMaxWeightAndUnweighted(t *testing.T) {
	g := Path(4)
	if !g.IsUnweighted() || g.MaxWeight() != 1 {
		t.Fatal("Path should be unweighted with MaxWeight 1")
	}
	rng := rand.New(rand.NewSource(2))
	w := WithRandomWeights(g, 50, rng)
	if w.IsUnweighted() && w.MaxWeight() == 1 {
		t.Fatal("weighted copy should not be unit-weighted (whp for 3 edges)")
	}
	if w.MaxWeight() > 50 || w.MaxWeight() < 1 {
		t.Fatalf("MaxWeight = %d outside [1,50]", w.MaxWeight())
	}
}

// Property: a cloned-then-reweighted graph has the same topology.
func TestReweightPreservesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := GNP(25, 0.15, rng)
	w := WithRandomWeights(g, 1000, rng)
	if w.N() != g.N() || w.M() != g.M() {
		t.Fatalf("reweight changed shape: (%d,%d) vs (%d,%d)", w.N(), w.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !w.HasEdge(e.U, e.V) {
			t.Fatalf("edge {%d,%d} lost in reweight", e.U, e.V)
		}
	}
}

// Property-based: random graphs always validate and have symmetric
// distance matrices.
func TestQuickRandomGraphInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, tenthP uint8) bool {
		n := 2 + int(nRaw%40)
		p := float64(tenthP%10) / 10
		rng := rand.New(rand.NewSource(seed))
		g := GNP(n, p, rng)
		if err := g.Validate(); err != nil {
			return false
		}
		if !g.Connected() {
			return false
		}
		d := APSP(g)
		for u := 0; u < n; u++ {
			if d[u][u] != 0 {
				return false
			}
			for v := 0; v < n; v++ {
				if d[u][v] != d[v][u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSatAdd is SatAdd's boundary table: zero, a finite distance plus Inf,
// Inf plus Inf, and the largest finite sums, which stay exact.
func TestSatAdd(t *testing.T) {
	for _, c := range []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, 7, 7},
		{5, Inf, Inf},
		{Inf, 5, Inf},
		{0, Inf, Inf},
		{Inf, Inf, Inf},
		{Inf + 1, 0, Inf},
		{Inf - 1, 1, Inf},
		{Inf - 1, Inf - 1, 2*Inf - 2},
		{2*Inf - 2, Inf - 1, Inf},
	} {
		if got := SatAdd(c.a, c.b); got != c.want {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
