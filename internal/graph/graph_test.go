package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
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

// TestWeightLimit pins the input-graph weight bound: a path with every
// edge at WeightLimit stays finite end to end under Dijkstra and APSP, and
// AddEdge itself does not enforce the bound, since derived graphs carry
// multi-hop distances above their own limit.
func TestWeightLimit(t *testing.T) {
	for _, n := range []int{2, 3, 17} {
		p := New(n)
		lim := p.WeightLimit()
		if lim != (Inf-1)/int64(n-1) {
			t.Fatalf("n=%d: WeightLimit() = %d, want %d", n, lim, (Inf-1)/int64(n-1))
		}
		for v := 0; v+1 < n; v++ {
			p.MustAddEdge(v, v+1, lim)
		}
		want := int64(n-1) * lim
		if d := Dijkstra(p, 0)[n-1]; d != want || d >= Inf {
			t.Fatalf("n=%d: Dijkstra end to end = %d, want %d < Inf", n, d, want)
		}
		if d := APSP(p)[n-1][0]; d != want {
			t.Fatalf("n=%d: APSP end to end = %d, want %d", n, d, want)
		}
	}
	if New(1).WeightLimit() != Inf-1 || New(0).WeightLimit() != Inf-1 {
		t.Fatal("a graph with no possible edge should report Inf-1")
	}
	g := New(3)
	if err := g.AddEdge(0, 1, g.WeightLimit()+1); err != nil {
		t.Fatalf("AddEdge refused a weight above the input limit: %v", err)
	}
}

// TestWithRandomWeightsLimit: WithRandomWeights draws up to maxW at
// WeightLimit, and panics above it with both values in the message.
func TestWithRandomWeightsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lim := Path(4).WeightLimit()
	if lo, hi := weightRange(WithRandomWeights(Path(4), lim, rng)); lo < 1 || hi > lim {
		t.Fatalf("maxW at the limit gave weights in [%d, %d], outside [1, %d]", lo, hi, lim)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, v := range []int64{4 * lim, lim} {
			if !strings.Contains(msg, fmt.Sprint(v)) {
				t.Fatalf("panic %q does not name %d", msg, v)
			}
		}
	}()
	WithRandomWeights(Path(4), 4*lim, rng)
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
		{"star", star(7), true},
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
		{"complete", complete(12)},
		{"star", star(20)},
		{"tree", RandomTree(40, rng)},
		{"gnp", GNP(30, 0.2, rng)},
		{"sparse", SparseConnected(50, 1.5, rng)},
		{"geometric", RandomGeometric(40, 0.15, rng)},
		{"barbell", Barbell(6, 5)},
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

// weightRange returns the smallest and largest edge weight of a graph with
// at least one edge.
func weightRange(g *Graph) (lo, hi int64) {
	lo, hi = Inf, 0
	for u := 0; u < g.N(); u++ {
		for _, nb := range g.Neighbors(u) {
			lo, hi = min(lo, nb.W), max(hi, nb.W)
		}
	}
	return lo, hi
}

func TestMaxWeightAndUnweighted(t *testing.T) {
	g := Path(4)
	if lo, hi := weightRange(g); lo != 1 || hi != 1 {
		t.Fatalf("Path has weights in [%d,%d], want all 1", lo, hi)
	}
	rng := rand.New(rand.NewSource(2))
	w := WithRandomWeights(g, 50, rng)
	lo, hi := weightRange(w)
	if hi == 1 {
		t.Fatal("weighted copy should not be unit-weighted (whp for 3 edges)")
	}
	if lo < 1 || hi > 50 {
		t.Fatalf("weights in [%d,%d], outside [1,50]", lo, hi)
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

// FuzzGraphBuild drives New and AddEdge with the fuzzer's bytes: a node
// count (negative and zero included), then (u, v, w) triples, endpoints
// out of range, equal or repeated and weights zero or negative among them.
// No input may panic. AddEdge must reject exactly the out-of-range,
// self-loop, non-positive and duplicate edges, and a rejected edge must
// leave M and Fingerprint as they were. The built graph must pass Validate,
// and its Clone must hash the same.
func FuzzGraphBuild(f *testing.F) {
	f.Add([]byte{5, 0, 1, 3, 1, 2, 1, 2, 3, 7, 3, 4, 2})
	f.Add([]byte{4, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 2, 0, 0, 3, 0x80})
	f.Add([]byte{3, 0xff, 1, 1, 0, 3, 1, 2, 0x7f, 1, 1, 2, 5})
	f.Add([]byte{0xfe, 0, 1, 1})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// int8 values give negative counts, endpoints and weights; the
		// modulus keeps most endpoints in range and n..n+2 just past it.
		n := int(int8(data[0])) % 32
		g := New(n)
		if g.N() != max(n, 0) || g.M() != 0 {
			t.Fatalf("New(%d): N %d, M %d", n, g.N(), g.M())
		}
		has := map[[2]int]bool{}
		for i := 1; i+2 < len(data); i += 3 {
			u := int(int8(data[i])) % (g.N() + 3)
			v := int(int8(data[i+1])) % (g.N() + 3)
			w := int64(int8(data[i+2]))
			m, fp := g.M(), g.Fingerprint()
			key := [2]int{min(u, v), max(u, v)}
			valid := u >= 0 && u < g.N() && v >= 0 && v < g.N() && u != v && w > 0 && !has[key]
			err := g.AddEdge(u, v, w)
			if (err == nil) != valid {
				t.Fatalf("AddEdge(%d, %d, %d) on n=%d: err %v, want accepted %v", u, v, w, g.N(), err, valid)
			}
			if err != nil {
				if g.M() != m || g.Fingerprint() != fp {
					t.Fatalf("rejected AddEdge(%d, %d, %d) changed the graph: M %d -> %d", u, v, w, m, g.M())
				}
				continue
			}
			has[key] = true
			if g.M() != m+1 || !g.HasEdge(u, v) || !g.HasEdge(v, u) {
				t.Fatalf("accepted AddEdge(%d, %d, %d): M %d -> %d, HasEdge %v/%v", u, v, w, m, g.M(), g.HasEdge(u, v), g.HasEdge(v, u))
			}
			if got, _ := g.Weight(v, u); got != w {
				t.Fatalf("Weight(%d, %d) = %d, want %d", v, u, got, w)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails Validate: %v", err)
		}
	})
}

// complete returns the complete graph K_n with unit weights.
func complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	return g
}

// star returns the star graph with center 0 and unit weights.
func star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	return g
}

// Validate checks structural invariants: adjacency symmetry, weight
// positivity, no self loops, no duplicate edges — the oracle of the
// generator tests and FuzzGraphBuild.
func (g *Graph) Validate() error {
	type key struct{ u, v int }
	seen := make(map[key]int64, 2*g.m)
	degSum := 0
	for u := 0; u < g.n; u++ {
		local := make(map[int]bool, len(g.adj[u]))
		for _, nb := range g.adj[u] {
			if nb.To < 0 || nb.To >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, nb.To)
			}
			if nb.To == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if nb.W <= 0 {
				return fmt.Errorf("graph: non-positive weight %d on {%d,%d}", nb.W, u, nb.To)
			}
			if local[nb.To] {
				return fmt.Errorf("graph: duplicate adjacency %d->%d", u, nb.To)
			}
			local[nb.To] = true
			seen[key{u, nb.To}] = nb.W
			degSum++
		}
	}
	for k, w := range seen {
		w2, ok := seen[key{k.v, k.u}]
		if !ok {
			return fmt.Errorf("graph: asymmetric edge %d->%d", k.u, k.v)
		}
		if w != w2 {
			return fmt.Errorf("graph: weight mismatch on {%d,%d}: %d vs %d", k.u, k.v, w, w2)
		}
	}
	if degSum != 2*g.m {
		return errors.New("graph: edge count out of sync with adjacency lists")
	}
	return nil
}
