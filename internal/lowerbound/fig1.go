package lowerbound

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Fig1Params sizes the Theorem 1.5 worst-case graph (Figure 1): a path of
// PathLen edges with the observer node b at one end, an attachment node v1
// at distance L from b carrying the sources assigned to S1, and the far end
// v2 carrying the sources assigned to S2.
type Fig1Params struct {
	K       int // number of sources
	L       int // distance of v1 from b; Θ~(sqrt k) in the proof
	PathLen int // path length; Ω(n)
}

// N returns the node count: PathLen+1 path nodes plus K source nodes.
func (p Fig1Params) N() int { return p.PathLen + 1 + p.K }

// Fig1 is one built instance.
type Fig1 struct {
	G       *graph.Graph
	Params  Fig1Params
	B       int   // observer node (path position 0)
	V1, V2  int   // attachment nodes (positions L and PathLen)
	Sources []int // source node IDs, in input order
	// InS1 mirrors the assignment: InS1[i] reports whether source i hangs
	// off v1 (the near attachment) — the secret b must learn.
	InS1 []bool
}

// BuildFig1 constructs the graph for a given source assignment (true = S1).
// All edges have unit weight (the bound holds on unweighted graphs).
func BuildFig1(p Fig1Params, inS1 []bool) (*Fig1, error) {
	if p.K < 1 || p.L < 1 || p.PathLen <= p.L {
		return nil, fmt.Errorf("lowerbound: invalid Figure 1 params %+v", p)
	}
	if len(inS1) != p.K {
		return nil, fmt.Errorf("lowerbound: assignment has %d bits for %d sources", len(inS1), p.K)
	}
	g := graph.New(p.N())
	// Path nodes 0..PathLen; b = 0, v1 = L, v2 = PathLen.
	for i := 0; i < p.PathLen; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	sources := make([]int, p.K)
	for i := 0; i < p.K; i++ {
		s := p.PathLen + 1 + i
		sources[i] = s
		if inS1[i] {
			g.MustAddEdge(s, p.L, 1)
		} else {
			g.MustAddEdge(s, p.PathLen, 1)
		}
	}
	return &Fig1{
		G:       g,
		Params:  p,
		B:       0,
		V1:      p.L,
		V2:      p.PathLen,
		Sources: sources,
		InS1:    append([]bool(nil), inS1...),
	}, nil
}

// Verify checks the structural facts the Theorem 1.5 argument rests on:
// d(b, s) = L+1 for s ∈ S1 and PathLen+1 for s ∈ S2, so learning all
// distances at b reveals the full assignment; and the approximation gap
// d_S2/d_S1 = Θ(n/sqrt(k)) that rules out α-approximations for
// α <= α' ∈ Θ(n/sqrt(k)).
func (f *Fig1) Verify() error {
	d := graph.BFS(f.G, f.B)
	for i, s := range f.Sources {
		want := int64(f.Params.PathLen + 1)
		if f.InS1[i] {
			want = int64(f.Params.L + 1)
		}
		if d[s] != want {
			return fmt.Errorf("lowerbound: d(b, source %d) = %d, want %d", i, d[s], want)
		}
	}
	return nil
}

// ApproxGap returns α' = (PathLen+1)/(L+1), the largest approximation
// factor the construction defeats (Theorem 1.5's Θ(n/sqrt k)).
func (f *Fig1) ApproxGap() float64 {
	return float64(f.Params.PathLen+1) / float64(f.Params.L+1)
}

// EntropyBits returns the Shannon entropy of a uniformly random balanced
// assignment of k sources to S1/S2 — the Ω~(k) bits b must receive:
// log2(C(k, k/2)) ≈ k - O(log k).
func EntropyBits(k int) float64 {
	// log2(k choose k/2) via log-gamma.
	lg := func(x float64) float64 {
		g, _ := math.Lgamma(x)
		return g
	}
	half := float64(k) / 2
	nats := lg(float64(k)+1) - lg(half+1) - lg(float64(k)-half+1)
	return nats / math.Ln2
}

// PathCapacityBits returns the per-round global receive capacity of the
// first L path nodes in bits: L nodes × O(log n) messages × O(log n) bits
// (the Lemma 4.4-of-[3] bottleneck quantity).
func PathCapacityBits(l, n, sendFactor int) float64 {
	logn := math.Log2(math.Max(float64(n), 2))
	return float64(l) * float64(sendFactor) * logn * logn
}

// AliceCutFig1 marks the Figure 1 bottleneck cut: b and the first L path
// nodes on one side, everything else (the graph body holding the secret)
// on the other.
func (f *Fig1) AliceCut() []bool {
	cut := make([]bool, f.G.N())
	for v := 0; v <= f.Params.L; v++ {
		cut[v] = true
	}
	return cut
}
