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
	"errors"
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

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

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

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for u := 0; u < g.n; u++ {
		c.adj[u] = append([]Neighbor(nil), g.adj[u]...)
	}
	return c
}

// MaxWeight returns the largest edge weight (1 for edgeless graphs, so that
// unweighted graphs report W = 1 per the paper's convention).
func (g *Graph) MaxWeight() int64 {
	var max int64 = 1
	for u := 0; u < g.n; u++ {
		for _, nb := range g.adj[u] {
			if nb.W > max {
				max = nb.W
			}
		}
	}
	return max
}

// IsUnweighted reports whether every edge has weight 1 (W = 1, paper §1.3).
func (g *Graph) IsUnweighted() bool {
	for u := 0; u < g.n; u++ {
		for _, nb := range g.adj[u] {
			if nb.W != 1 {
				return false
			}
		}
	}
	return true
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

// Validate checks structural invariants: adjacency symmetry, weight
// positivity, no self loops, no duplicate edges. It is used by generator
// tests and property-based tests.
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
