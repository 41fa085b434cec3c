package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Generators for the workloads used across the experiment suite. All
// randomized generators take an explicit *rand.Rand so every experiment is
// reproducible from a single seed.

// Path returns the path graph 0-1-2-...-n-1 with unit weights. Paths are the
// high-diameter extreme where pure-LOCAL algorithms need Theta(n) rounds
// (paper §1: "there are graphs for which D is linear in n").
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	return g
}

// Cycle returns the n-cycle with unit weights.
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.MustAddEdge(n-1, 0, 1)
	}
	return g
}

// Grid returns the rows x cols grid graph with unit weights; node (r, c) has
// index r*cols + c. Grids have diameter Theta(sqrt(n)), the regime where the
// HYBRID APSP bound O~(sqrt(n)) meets the LOCAL bound Theta(D).
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return g
}

// RandomTree returns a uniformly-shaped random spanning tree on n nodes with
// unit weights: node i > 0 attaches to a uniform node in [0, i).
func RandomTree(n int, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, rng.Intn(v), 1)
	}
	return g
}

// GNP returns a connected Erdős–Rényi graph: each pair is an edge with
// probability p, and a random spanning tree is overlaid first so the result
// is always connected (the HYBRID model assumes connected local graphs; the
// paper's skeleton machinery requires connectivity). Unit weights.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	g := RandomTree(n, rng)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 1)
			}
		}
	}
	return g
}

// SparseConnected returns a connected graph with about extraFraction*n edges
// beyond a random spanning tree — the "sparse random graph" workload used by
// the APSP and k-SSP experiments. Unit weights.
func SparseConnected(n int, extraFraction float64, rng *rand.Rand) *Graph {
	g := RandomTree(n, rng)
	extra := int(extraFraction * float64(n))
	for i := 0; i < extra; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1)
		}
	}
	return g
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within Euclidean distance radius, then connects components by
// chaining nearest representatives so the result is connected. This models
// the paper's motivating wireless scenario (short-range local links).
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := New(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				g.MustAddEdge(u, v, 1)
			}
		}
	}
	connectComponents(g, xs, ys)
	return g
}

// connectComponents adds minimal bridge edges between connected components,
// joining each component to its geometrically nearest other component.
func connectComponents(g *Graph, xs, ys []float64) {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var compCount int
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		stack := []int{s}
		comp[s] = compCount
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.Neighbors(u) {
				if comp[nb.To] == -1 {
					comp[nb.To] = compCount
					stack = append(stack, nb.To)
				}
			}
		}
		compCount++
	}
	for compCount > 1 {
		// Find the closest pair of nodes in different components and merge.
		bestU, bestV, bestD := -1, -1, math.Inf(1)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if comp[u] == comp[v] {
					continue
				}
				dx, dy := xs[u]-xs[v], ys[u]-ys[v]
				if d := dx*dx + dy*dy; d < bestD {
					bestU, bestV, bestD = u, v, d
				}
			}
		}
		g.MustAddEdge(bestU, bestV, 1)
		from, to := comp[bestV], comp[bestU]
		for i := range comp {
			if comp[i] == from {
				comp[i] = to
			}
		}
		compCount--
	}
}

// Barbell returns two cliques of size k joined by a path of bridgeLen edges.
// Barbells have a sharp bottleneck and diameter Theta(bridgeLen); they
// stress the helper-set machinery because samples concentrate per clique.
func Barbell(k, bridgeLen int) *Graph {
	n := 2*k + bridgeLen - 1
	if bridgeLen < 1 {
		bridgeLen = 1
		n = 2 * k
	}
	g := New(n)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	base := k + bridgeLen - 1
	for u := base; u < base+k; u++ {
		for v := u + 1; v < base+k; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	prev := k - 1
	for i := 0; i < bridgeLen-1; i++ {
		g.MustAddEdge(prev, k+i, 1)
		prev = k + i
	}
	g.MustAddEdge(prev, base, 1)
	return g
}

// WithRandomWeights returns a copy of g with integer weights drawn uniformly
// from [1, maxW]. Used to build the weighted variants of every workload
// (the paper allows W polynomial in n). It panics if maxW < 1 or maxW >
// g.WeightLimit().
func WithRandomWeights(g *Graph, maxW int64, rng *rand.Rand) *Graph {
	if lim := g.WeightLimit(); maxW > lim {
		panic(fmt.Sprintf("graph: WithRandomWeights: maxW %d is above the weight limit %d", maxW, lim))
	}
	return g.Reweight(func(u, v int, w int64) int64 {
		return 1 + rng.Int63n(maxW)
	})
}
