// Package graph provides the weighted undirected graphs that serve as the
// local communication topology G = (V, E) of the HYBRID model (paper §1.3),
// together with generators and exact sequential reference algorithms used as
// ground truth by tests and benchmarks.
//
// Nodes are identified by integers 0..n-1 (the paper uses IDs [n]; we shift
// to 0-based). Edge weights are positive integers in [1, W] with W at most
// polynomial in n, so a weight fits into one O(log n)-bit message field.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Inf is the distance value used for unreachable pairs. It is chosen far
// below overflow territory so that Inf+w for any legal edge weight w never
// wraps around.
const Inf int64 = math.MaxInt64 / 4

// SatAdd adds two distances, saturating at Inf: an operand at or past Inf
// makes the sum Inf. Two finite operands add exactly; both are below
// Inf = MaxInt64/4, so their sum cannot overflow.
func SatAdd(a, b int64) int64 {
	if a >= Inf || b >= Inf {
		return Inf
	}
	return a + b
}

// Edge is a weighted undirected edge between two nodes.
type Edge struct {
	U, V int
	W    int64
}

// Neighbor is one adjacency entry: the endpoint reached and the edge weight.
type Neighbor struct {
	To int
	W  int64
}

// Graph is a weighted undirected graph with nodes 0..n-1. The zero value is
// an empty graph with no nodes; use New to create a graph of a given size.
type Graph struct {
	n   int
	m   int
	adj [][]Neighbor
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Neighbor, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v} with weight w. It returns an
// error if the endpoints are out of range, equal, non-positive weight, or if
// the edge already exists.
func (g *Graph) AddEdge(u, v int, w int64) error {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	case u == v:
		return fmt.Errorf("graph: self-loop at %d", u)
	case w <= 0:
		return fmt.Errorf("graph: non-positive weight %d on {%d,%d}", w, u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], Neighbor{To: v, W: w})
	g.adj[v] = append(g.adj[v], Neighbor{To: u, W: w})
	g.m++
	return nil
}

// WeightLimit is the largest edge weight an input graph on n nodes may
// carry: (Inf-1)/(n-1), so that no simple path, at most n-1 edges, sums to
// Inf and reads as unreachable. AddEdge does not enforce it: the graphs the
// algorithms build over a subset of nodes (skeleton graphs, the CLIQUE
// oracle's graph) weigh their edges with multi-hop distances of the input,
// which are below Inf but may exceed their own graph's limit. Code that
// takes weights from outside checks them against it, as netflags does for
// -maxw, WithRandomWeights for maxW and Certify for every edge.
func (g *Graph) WeightLimit() int64 { return (Inf - 1) / int64(max(1, g.n-1)) }

// MustAddEdge is AddEdge for construction code where an error indicates a
// bug in the generator itself.
func (g *Graph) MustAddEdge(u, v int, w int64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the smaller adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, nb := range g.adj[u] {
		if nb.To == v {
			return true
		}
	}
	return false
}

// Weight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) Weight(u, v int) (int64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, nb := range g.adj[u] {
		if nb.To == v {
			return nb.W, true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency list of u. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Neighbor { return g.adj[u] }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all undirected edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, nb := range g.adj[u] {
			if u < nb.To {
				edges = append(edges, Edge{U: u, V: nb.To, W: nb.W})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.adj[u] {
			if !seen[nb.To] {
				seen[nb.To] = true
				count++
				stack = append(stack, nb.To)
			}
		}
	}
	return count == g.n
}

// Reweight returns a copy of g in which every edge weight is replaced by
// fn(u, v, w). Weights must remain positive.
func (g *Graph) Reweight(fn func(u, v int, w int64) int64) *Graph {
	c := New(g.n)
	for _, e := range g.Edges() {
		c.MustAddEdge(e.U, e.V, fn(e.U, e.V, e.W))
	}
	return c
}

// Fingerprint returns a canonical 64-bit FNV-1a hash of the graph — node
// count and the sorted undirected edge list with weights — so two graphs
// hash equal iff they are the same labeled weighted graph. It is the
// topology component of the persistent warm-start cache key: a cache file
// recorded for one graph must never be offered to another.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(g.n))
	word(uint64(g.m))
	for _, e := range g.Edges() {
		word(uint64(e.U))
		word(uint64(e.V))
		word(uint64(e.W))
	}
	return h.Sum64()
}
