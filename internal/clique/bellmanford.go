package clique

import (
	"repro/internal/graph"
)

// BellmanFord is the simplest CLIQUE distance algorithm: for each source,
// iterate synchronous Bellman-Ford relaxations, with every node
// broadcasting its current estimate each round (one O(log n)-bit message to
// each node — the plain clique pattern, no Lenzen routing needed). Sources
// are processed round-robin, so round r relaxes source r mod k.
//
// With iters >= the hop diameter of the input graph the result is exact;
// rounds = k * iters, i.e. δ = 1 in the framework's terms when iters ~ q.
// It is the workhorse for single sources on small skeletons and the
// real-message counterpart of the declared-cost oracle.
type BellmanFord struct {
	q       int
	sources []int
	iters   int
}

// NewBellmanFord creates the algorithm. iters <= 0 selects q-1 (always
// exact).
func NewBellmanFord(q int, sources []int, iters int) *BellmanFord {
	if iters <= 0 {
		iters = q - 1
	}
	if iters < 1 {
		iters = 1
	}
	return &BellmanFord{q: q, sources: append([]int(nil), sources...), iters: iters}
}

// Q returns the node count.
func (a *BellmanFord) Q() int { return a.q }

// Rounds returns k * iters.
func (a *BellmanFord) Rounds() int { return len(a.sources) * a.iters }

// Sources returns the global source list.
func (a *BellmanFord) Sources() []int { return a.sources }

// Schedule: every node sends its estimate for the round's source to every
// other node. Tag = source index.
func (a *BellmanFord) Schedule(r, p int) []Slot {
	if len(a.sources) == 0 {
		return nil
	}
	sIdx := r % len(a.sources)
	slots := make([]Slot, 0, a.q-1)
	for d := 0; d < a.q; d++ {
		if d != p {
			slots = append(slots, Slot{Dst: d, Tag: int64(sIdx)})
		}
	}
	return slots
}

// NewNode creates node p with its incident edges.
func (a *BellmanFord) NewNode(p int, adj []graph.Neighbor) Node {
	n := &bfNode{alg: a, self: p, dist: make([]int64, len(a.sources))}
	n.weights = make(map[int]int64, len(adj))
	for _, nb := range adj {
		n.weights[nb.To] = nb.W
	}
	for i, s := range a.sources {
		if s == p {
			n.dist[i] = 0
		} else {
			n.dist[i] = graph.Inf
		}
	}
	return n
}

type bfNode struct {
	alg     *BellmanFord
	self    int
	weights map[int]int64
	dist    []int64
}

func (n *bfNode) Send(r int) []Value {
	sIdx := r % len(n.alg.sources)
	vals := make([]Value, 0, n.alg.q-1)
	for d := 0; d < n.alg.q; d++ {
		if d != n.self {
			vals = append(vals, Value{F0: n.dist[sIdx]})
		}
	}
	return vals
}

func (n *bfNode) Recv(r int, in []Incoming) {
	sIdx := r % len(n.alg.sources)
	for _, m := range in {
		w, isNeighbor := n.weights[m.Src]
		if !isNeighbor {
			continue // non-neighbors cannot relax us
		}
		if nd := graph.SatAdd(m.Val.F0, w); nd < n.dist[sIdx] {
			n.dist[sIdx] = nd
		}
	}
}

// Distances returns the estimates aligned with Sources().
func (n *bfNode) Distances() []int64 { return n.dist }

var (
	_ DistanceAlgorithm = (*BellmanFord)(nil)
	_ DistanceNode      = (*bfNode)(nil)
)
