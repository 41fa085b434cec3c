package graph

// This file holds the exact sequential reference algorithms. They define
// ground truth for every distributed algorithm in the repository: a HYBRID
// APSP run is correct iff Certify accepts its row of every source (which
// holds iff the row matches Dijkstra), a diameter approximation D~ is valid
// iff D <= D~ <= alpha*D + beta with D computed here, and so on (paper §1.3
// problem definitions).

import "fmt"

// distHeap is a hand-rolled binary min-heap of (node, dist) pairs for
// Dijkstra; avoiding container/heap keeps the hot loop allocation-free.
type distHeap struct {
	node []int
	dist []int64
}

func (h *distHeap) Len() int { return len(h.node) }

func (h *distHeap) push(n int, d int64) {
	h.node = append(h.node, n)
	h.dist = append(h.dist, d)
	i := len(h.node) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.dist[parent] <= h.dist[i] {
			break
		}
		h.node[i], h.node[parent] = h.node[parent], h.node[i]
		h.dist[i], h.dist[parent] = h.dist[parent], h.dist[i]
		i = parent
	}
}

func (h *distHeap) pop() (int, int64) {
	n, d := h.node[0], h.dist[0]
	last := len(h.node) - 1
	h.node[0], h.dist[0] = h.node[last], h.dist[last]
	h.node = h.node[:last]
	h.dist = h.dist[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.dist[l] < h.dist[smallest] {
			smallest = l
		}
		if r < last && h.dist[r] < h.dist[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.node[i], h.node[smallest] = h.node[smallest], h.node[i]
		h.dist[i], h.dist[smallest] = h.dist[smallest], h.dist[i]
		i = smallest
	}
	return n, d
}

// Dijkstra returns d(src, v) for all v, with Inf for unreachable nodes.
func Dijkstra(g *Graph, src int) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	h := &distHeap{}
	h.push(src, 0)
	for h.Len() > 0 {
		u, d := h.pop()
		if d > dist[u] {
			continue
		}
		for _, nb := range g.Neighbors(u) {
			if nd := d + nb.W; nd < dist[nb.To] {
				dist[nb.To] = nd
				h.push(nb.To, nd)
			}
		}
	}
	return dist
}

// Certify checks that d is exactly Dijkstra(g, src), in one O(m) pass and
// without computing distances. Weights are at least 1 (AddEdge rejects the
// rest) and must be at most g.WeightLimit() — a heavier edge is an error,
// since it can make a path sum to Inf, which reads as unreachable, and a row
// of Infs then passes the rules below. So d passes iff len(d) == n, d[src]
// == 0, no entry lies above Inf, and for every node v:
//
//   - no edge relaxes: d[v] <= w(v,u) + d[u] for every neighbour u, which
//     also rules out an Inf entry next to a finite one;
//   - v != src with d[v] < Inf has a tight neighbour: d[v] == w(v,u) + d[u].
//
// The first rule gives d <= the true distances along every shortest path
// from src. By the second, a finite d[v] is the weight of a walk along tight
// neighbours, on which d strictly falls and which can only end at src, so
// d[v] is at least the true distance. The error names src, the first bad v
// and the rule it breaks; malformed input gets an error, never a panic.
func Certify(g *Graph, src int, d []int64) error {
	n := g.N()
	switch {
	case src < 0 || src >= n:
		return fmt.Errorf("graph: certify: source %d out of range [0,%d)", src, n)
	case len(d) != n:
		return fmt.Errorf("graph: certify source %d: %d entries for %d nodes", src, len(d), n)
	}
	for v, dv := range d {
		if dv > Inf {
			return fmt.Errorf("graph: certify source %d: node %d: d = %d is above Inf", src, v, dv)
		}
	}
	if d[src] != 0 {
		return fmt.Errorf("graph: certify source %d: d[source] = %d, want 0", src, d[src])
	}
	limit := g.WeightLimit()
	for v, dv := range d {
		tight := v == src || dv == Inf
		for _, nb := range g.Neighbors(v) {
			if nb.W > limit {
				return fmt.Errorf("graph: certify source %d: edge {%d,%d} weighs %d, above the weight limit %d",
					src, v, nb.To, nb.W, limit)
			}
			via := SatAdd(nb.W, d[nb.To])
			if dv > via {
				return fmt.Errorf("graph: certify source %d: node %d: edge to %d relaxes it, %d > %d + %d",
					src, v, nb.To, dv, nb.W, d[nb.To])
			}
			if dv == via {
				tight = true
			}
		}
		if !tight {
			return fmt.Errorf("graph: certify source %d: node %d: no tight neighbour for d = %d", src, v, dv)
		}
	}
	return nil
}

// BFS returns hop(src, v) for all v, with Inf for unreachable nodes. This is
// the paper's hop-distance, which ignores edge weights.
func BFS(g *Graph, src int) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(u) {
			if dist[nb.To] == Inf {
				dist[nb.To] = dist[u] + 1
				queue = append(queue, nb.To)
			}
		}
	}
	return dist
}

// APSP returns the full weighted distance matrix via Dijkstra from every
// source. O(n * (m + n) log n).
func APSP(g *Graph) [][]int64 {
	out := make([][]int64, g.N())
	for u := 0; u < g.N(); u++ {
		out[u] = Dijkstra(g, u)
	}
	return out
}

// HopDiameter returns D(G) := max_{u,v} hop(u,v), the paper's diameter
// (§1.3 defines the diameter over hop distances, even on weighted graphs).
// It returns Inf for disconnected graphs and 0 for graphs with fewer than
// two nodes.
func HopDiameter(g *Graph) int64 {
	var d int64
	for u := 0; u < g.N(); u++ {
		for _, x := range BFS(g, u) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// WeightedDiameter returns max_{u,v} d(u,v) over weighted distances, Inf if
// disconnected.
func WeightedDiameter(g *Graph) int64 {
	var d int64
	for u := 0; u < g.N(); u++ {
		for _, x := range Dijkstra(g, u) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// LimitedDistance returns the h-limited distance d_h(src, v) for all v: the
// weight of the lightest src-v path using at most h edges, Inf if none
// exists (paper §1.3). Implemented as h rounds of Bellman-Ford relaxation.
func LimitedDistance(g *Graph, src, h int) []int64 {
	cur := make([]int64, g.N())
	for i := range cur {
		cur[i] = Inf
	}
	if src < 0 || src >= g.N() {
		return cur
	}
	cur[src] = 0
	next := make([]int64, g.N())
	for step := 0; step < h; step++ {
		copy(next, cur)
		changed := false
		for u := 0; u < g.N(); u++ {
			if cur[u] == Inf {
				continue
			}
			for _, nb := range g.Neighbors(u) {
				if nd := cur[u] + nb.W; nd < next[nb.To] {
					next[nb.To] = nd
					changed = true
				}
			}
		}
		cur, next = next, cur
		if !changed {
			break
		}
	}
	return cur
}

// SPD returns the shortest-path diameter: the smallest h such that
// d_h(u,v) = d(u,v) for all pairs. This is the parameter in [3]'s
// O~(sqrt(SPD)) SSSP algorithm that Theorem 1.3 improves on for large-SPD
// graphs. Returns 0 for graphs with fewer than two nodes, and the SPD of the
// reachable pairs if the graph is disconnected.
func SPD(g *Graph) int {
	n := g.N()
	spd := 0
	for src := 0; src < n; src++ {
		// Dijkstra that tracks, for each node, the minimum hop count among
		// shortest paths from src.
		dist := Dijkstra(g, src)
		hops := make([]int, n)
		for i := range hops {
			hops[i] = 1 << 30
		}
		hops[src] = 0
		// Relax in order of increasing distance: process nodes sorted by
		// dist, computing min hops over tight edges.
		order := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if dist[v] < Inf {
				order = append(order, v)
			}
		}
		// Insertion by distance; counting sort is overkill here.
		sortByDist(order, dist)
		for _, u := range order {
			for _, nb := range g.Neighbors(u) {
				if dist[u]+nb.W == dist[nb.To] && hops[u]+1 < hops[nb.To] {
					hops[nb.To] = hops[u] + 1
				}
			}
		}
		for _, v := range order {
			if hops[v] < (1<<30) && hops[v] > spd {
				spd = hops[v]
			}
		}
	}
	return spd
}

func sortByDist(order []int, dist []int64) {
	// Simple in-place sort; n is small relative to the Dijkstra cost.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && dist[order[j]] < dist[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// KDistances returns, for each node v, the vector of d(v, s) for the given
// sources, in source order. This is the output shape of the k-SSP problem.
func KDistances(g *Graph, sources []int) [][]int64 {
	out := make([][]int64, g.N())
	for v := range out {
		out[v] = make([]int64, len(sources))
	}
	for si, s := range sources {
		d := Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			out[v][si] = d[v]
		}
	}
	return out
}
