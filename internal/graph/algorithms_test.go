package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDijkstraPath(t *testing.T) {
	g := Path(5)
	d := Dijkstra(g, 0)
	for v := 0; v < 5; v++ {
		if d[v] != int64(v) {
			t.Fatalf("d(0,%d) = %d, want %d", v, d[v], v)
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle where the two-hop route is shorter than the direct edge.
	g := New(3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(2, 1, 4)
	d := Dijkstra(g, 0)
	if d[1] != 7 {
		t.Fatalf("d(0,1) = %d, want 7 (via node 2)", d[1])
	}
	if d[2] != 3 {
		t.Fatalf("d(0,2) = %d, want 3", d[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	d := Dijkstra(g, 0)
	if d[2] != Inf || d[3] != Inf {
		t.Fatalf("unreachable distances = %d,%d, want Inf", d[2], d[3])
	}
}

func TestDijkstraBadSource(t *testing.T) {
	g := Path(3)
	d := Dijkstra(g, -1)
	for v, x := range d {
		if x != Inf {
			t.Fatalf("d(-1,%d) = %d, want Inf", v, x)
		}
	}
}

func TestBFSVersusDijkstraUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := GNP(60, 0.08, rng)
	for src := 0; src < 10; src++ {
		b := BFS(g, src)
		d := Dijkstra(g, src)
		for v := range b {
			if b[v] != d[v] {
				t.Fatalf("src=%d v=%d BFS=%d Dijkstra=%d", src, v, b[v], d[v])
			}
		}
	}
}

func TestHopDiameterKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"path10", Path(10), 9},
		{"cycle8", Cycle(8), 4},
		{"complete6", complete(6), 1},
		{"star9", star(9), 2},
		{"grid3x3", Grid(3, 3), 4},
		{"single", New(1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := HopDiameter(tt.g); got != tt.want {
				t.Fatalf("HopDiameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestWeightedDiameter(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	if d := WeightedDiameter(g); d != 12 {
		t.Fatalf("WeightedDiameter = %d, want 12", d)
	}
	// Hop diameter ignores weights.
	if d := HopDiameter(g); d != 2 {
		t.Fatalf("HopDiameter = %d, want 2", d)
	}
}

func TestEccentricityAndDiameterBound(t *testing.T) {
	// Paper fn.6: D/2 <= e(v) <= D for weighted diameter via any v.
	rng := rand.New(rand.NewSource(11))
	g := WithRandomWeights(GNP(40, 0.1, rng), 20, rng)
	d := WeightedDiameter(g)
	for v, row := range APSP(g) {
		e := slices.Max(row)
		if e > d || 2*e < d {
			t.Fatalf("eccentricity %d of node %d violates D/2 <= e <= D with D=%d", e, v, d)
		}
	}
}

func TestLimitedDistance(t *testing.T) {
	g := Path(6)
	d2 := LimitedDistance(g, 0, 2)
	want := []int64{0, 1, 2, Inf, Inf, Inf}
	for v := range want {
		if d2[v] != want[v] {
			t.Fatalf("d_2(0,%d) = %d, want %d", v, d2[v], want[v])
		}
	}
	// h >= n-1 gives true distances.
	dn := LimitedDistance(g, 0, 5)
	for v := 0; v < 6; v++ {
		if dn[v] != int64(v) {
			t.Fatalf("d_5(0,%d) = %d, want %d", v, dn[v], v)
		}
	}
}

func TestLimitedDistancePrefersLightIndirect(t *testing.T) {
	// d_1 uses only the direct heavy edge; d_2 finds the light route.
	g := New(3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 1, 1)
	if d := LimitedDistance(g, 0, 1); d[1] != 10 {
		t.Fatalf("d_1(0,1) = %d, want 10", d[1])
	}
	if d := LimitedDistance(g, 0, 2); d[1] != 2 {
		t.Fatalf("d_2(0,1) = %d, want 2", d[1])
	}
}

func TestSPDPathAndClique(t *testing.T) {
	if spd := SPD(Path(10)); spd != 9 {
		t.Fatalf("SPD(path10) = %d, want 9", spd)
	}
	if spd := SPD(complete(8)); spd != 1 {
		t.Fatalf("SPD(K8) = %d, want 1", spd)
	}
}

func TestSPDHeavyShortcut(t *testing.T) {
	// A direct heavy edge is never on a shortest path, so SPD follows the
	// light path.
	g := New(4)
	g.MustAddEdge(0, 3, 100)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if spd := SPD(g); spd != 3 {
		t.Fatalf("SPD = %d, want 3", spd)
	}
}

func TestSPDConsistentWithLimitedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := WithRandomWeights(GNP(30, 0.12, rng), 9, rng)
	spd := SPD(g)
	apsp := APSP(g)
	// d_spd must equal true distance everywhere...
	for u := 0; u < g.N(); u++ {
		lim := LimitedDistance(g, u, spd)
		for v := 0; v < g.N(); v++ {
			if lim[v] != apsp[u][v] {
				t.Fatalf("d_%d(%d,%d) = %d != true %d", spd, u, v, lim[v], apsp[u][v])
			}
		}
	}
	// ...and spd must be minimal: with spd-1 some pair must differ.
	if spd > 1 {
		tight := false
		for u := 0; u < g.N() && !tight; u++ {
			lim := LimitedDistance(g, u, spd-1)
			for v := 0; v < g.N(); v++ {
				if lim[v] != apsp[u][v] {
					tight = true
					break
				}
			}
		}
		if !tight {
			t.Fatalf("SPD = %d is not minimal", spd)
		}
	}
}

func TestKDistancesMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := WithRandomWeights(GNP(25, 0.2, rng), 10, rng)
	sources := []int{3, 11, 19}
	kd := KDistances(g, sources)
	for si, s := range sources {
		d := Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if kd[v][si] != d[v] {
				t.Fatalf("KDistances[%d][%d] = %d, want %d", v, si, kd[v][si], d[v])
			}
		}
	}
}

// Property: triangle inequality on APSP output of random weighted graphs.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 3 + int(nRaw%25)
		rng := rand.New(rand.NewSource(seed))
		g := WithRandomWeights(GNP(n, 0.2, rng), 12, rng)
		d := APSP(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					if d[u][v] > d[u][w]+d[w][v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop diameter lower-bounds weighted diameter on graphs with
// weights >= 1.
func TestQuickHopVsWeightedDiameter(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%30)
		rng := rand.New(rand.NewSource(seed))
		g := WithRandomWeights(GNP(n, 0.15, rng), 6, rng)
		return HopDiameter(g) <= WeightedDiameter(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: LimitedDistance is monotone non-increasing in h and reaches
// Dijkstra at h = n-1.
func TestQuickLimitedDistanceMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%20)
		rng := rand.New(rand.NewSource(seed))
		g := WithRandomWeights(GNP(n, 0.25, rng), 8, rng)
		src := int(rng.Int31n(int32(n)))
		exact := Dijkstra(g, src)
		prev := LimitedDistance(g, src, 0)
		for h := 1; h < n; h++ {
			cur := LimitedDistance(g, src, h)
			for v := 0; v < n; v++ {
				if cur[v] > prev[v] {
					return false
				}
				if cur[v] < exact[v] {
					return false // limited distance can never beat the true distance
				}
			}
			prev = cur
		}
		for v := 0; v < n; v++ {
			if prev[v] != exact[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDijkstraSparse1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := SparseConnected(1000, 2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, i%g.N())
	}
}
