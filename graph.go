package hybrid

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/lowerbound"
)

// Re-exports of the graph substrate so downstream users can build local
// topologies without reaching into internal packages. The aliases share
// identity with the internal types, so values flow freely across the API.

// Graph is a weighted undirected local communication graph on nodes 0..n-1.
type Graph = graph.Graph

// Neighbor is one adjacency entry.
type Neighbor = graph.Neighbor

// Edge is one undirected weighted edge.
type Edge = graph.Edge

// Inf is the distance reported for unreachable pairs.
const Inf = graph.Inf

// NewGraph returns an empty graph on n nodes; add edges with AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// PathGraph returns the n-node path (diameter n-1 — the LOCAL worst case).
func PathGraph(n int) *Graph { return graph.Path(n) }

// CycleGraph returns the n-cycle.
func CycleGraph(n int) *Graph { return graph.Cycle(n) }

// GridGraph returns the rows x cols grid.
func GridGraph(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// GNPGraph returns a connected Erdős–Rényi graph (spanning tree overlaid).
func GNPGraph(n int, p float64, rng *rand.Rand) *Graph { return graph.GNP(n, p, rng) }

// RandomTreeGraph returns a random-attachment tree on n nodes (each node
// i > 0 attaches to a uniform earlier node) — the sparsest connected
// topology, a useful stress case for cluster formation and flooding.
func RandomTreeGraph(n int, rng *rand.Rand) *Graph { return graph.RandomTree(n, rng) }

// SparseGraph returns a connected sparse random graph with about
// extraFraction*n non-tree edges.
func SparseGraph(n int, extraFraction float64, rng *rand.Rand) *Graph {
	return graph.SparseConnected(n, extraFraction, rng)
}

// GeometricGraph returns a connected random geometric graph — the paper's
// motivating wireless topology (short-range local links).
func GeometricGraph(n int, radius float64, rng *rand.Rand) *Graph {
	return graph.RandomGeometric(n, radius, rng)
}

// BarbellGraph returns two k-cliques joined by a bridgeLen-edge path.
func BarbellGraph(k, bridgeLen int) *Graph { return graph.Barbell(k, bridgeLen) }

// WithRandomWeights copies g with weights drawn uniformly from [1, maxW]. It
// panics if maxW < 1 or maxW > g.WeightLimit().
func WithRandomWeights(g *Graph, maxW int64, rng *rand.Rand) *Graph {
	return graph.WithRandomWeights(g, maxW, rng)
}

// Dijkstra returns exact single-source distances (sequential ground truth).
func Dijkstra(g *Graph, src int) []int64 { return graph.Dijkstra(g, src) }

// Certify checks that d is exactly the distance vector from src, in one
// O(m) pass without computing distances: d[src] = 0, no edge relaxes, and
// every other finite entry has a neighbour it is tight through. An APSP
// answer is exact iff every row passes with its own source. The error
// names src, the first bad node and the rule it breaks, or an edge above
// g.WeightLimit(), which no input graph may carry.
func Certify(g *Graph, src int, d []int64) error { return graph.Certify(g, src, d) }

// ExactAPSP returns the exact distance matrix (sequential ground truth).
func ExactAPSP(g *Graph) [][]int64 { return graph.APSP(g) }

// HopDiameter returns D(G) := max hop distance (the paper's diameter).
func HopDiameter(g *Graph) int64 { return graph.HopDiameter(g) }

// WeightedDiameter returns the maximum weighted distance.
func WeightedDiameter(g *Graph) int64 { return graph.WeightedDiameter(g) }

// GammaGraph builds the Figure 2 lower-bound family Γ^{a,b}_{k,ℓ,W}
// encoding a set-disjointness instance (Theorem 1.6); see
// internal/lowerbound for the dichotomy verifiers.
func GammaGraph(k, l int, w int64, a, b []bool) (*Graph, error) {
	gm, err := lowerbound.BuildGamma(lowerbound.GammaParams{K: k, L: l, W: w}, a, b)
	if err != nil {
		return nil, err
	}
	return gm.G, nil
}
