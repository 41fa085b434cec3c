// Package skeleton implements the skeleton-graph machinery of the paper
// (Appendix C and Algorithm 6): sample each node into V_S with probability
// 1/n^(1-x), then use h rounds of local communication to find, at every
// node, the h-hop-limited distances d_h(v, u) to all skeleton nodes within
// h hops. The skeleton graph S = (V_S, E_S) has an edge {u, v} whenever
// hop(u, v) <= h, weighted d_h(u, v).
//
// Lemma C.1: with h = ξ·n^(1-x)·ln n there is a skeleton node at least
// every h hops on (some) shortest path between any pair, w.h.p.
// Lemma C.2: S is connected and preserves exact distances between skeleton
// nodes, w.h.p.
//
// The package also implements Algorithm 7 (Compute-Representatives): each
// source tags its closest skeleton node as representative and the pairs
// (d_h(s, r_s), s, r_s) are made public knowledge by token dissemination.
package skeleton

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/ncc"
	"repro/internal/sim"
)

// Params controls skeleton construction.
type Params struct {
	// X is the size exponent: nodes are sampled with probability n^(x-1),
	// so |V_S| = Θ(n^x) w.h.p. Must be in (0, 1].
	X float64
	// HFactor is the paper's ξ constant in h = ceil(HFactor·n^(1-x)·ln n).
	// Zero means 2.0: the per-gap miss probability is e^(-ξ·ln n) = n^(-ξ),
	// and the union bound over Θ(n) path positions needs ξ >= 2 for the
	// coverage events of Lemma C.1 to hold reliably (ξ = 1 fails with
	// constant probability — observed in testing on paths and cycles).
	HFactor float64
}

// H returns the exploration depth for a given n.
func (p Params) H(n int) int {
	f := p.HFactor
	if f <= 0 {
		f = 2.0
	}
	x := p.X
	if x <= 0 || x > 1 {
		x = 2.0 / 3.0
	}
	h := int(math.Ceil(f * math.Pow(float64(n), 1-x) * math.Log(math.Max(float64(n), 2))))
	if h < 1 {
		h = 1
	}
	if h > n {
		h = n
	}
	return h
}

// SampleProb returns the node sampling probability n^(x-1).
func (p Params) SampleProb(n int) float64 {
	x := p.X
	if x <= 0 || x > 1 {
		x = 2.0 / 3.0
	}
	return math.Pow(float64(n), x-1)
}

// Result is one node's view after ComputeMachine.
type Result struct {
	// InSkeleton reports membership in V_S.
	InSkeleton bool
	// H is the exploration depth used.
	H int
	// Near lists each skeleton node u within H hops, sorted by ID, with a
	// distance estimate dd(v, u) satisfying d(v, u) <= dd(v, u) <= d_H(v, u)
	// and the hop distance (the BFS layer at which u was first heard):
	// after r rounds of synchronous relaxation every node's estimate is at
	// most the r-hop-limited distance (each improvement is re-broadcast the
	// round it is found) and it is always the weight of a real path.
	// Everywhere the paper uses d_h, this sandwich is sufficient: tight pairs
	// satisfy d_h = d, so dd = d there, and elsewhere only d <= dd <= d_h is
	// used. In the pure LOCAL model a node could learn its whole h-ball and
	// get exact d_h; we trade that memory blow-up for the sandwich estimate.
	// For a skeleton node the list includes itself with distance 0; the list
	// restricted to other skeleton members defines its incident E_S edges.
	Near []Heard
}

// ComputeMachine is Algorithm 6 as a collective machine: sample V_S
// (forceInclude adds this node deterministically, used for γ = 0 single
// sources), then explore for exactly H rounds of weighted Bellman-Ford so
// every node learns d_h to all skeleton nodes within h hops.
type ComputeMachine struct {
	// Res is this node's skeleton view; valid once Step returned true.
	Res Result

	prog sim.StepProgram
}

// NewComputeMachine builds the collective Algorithm 6 machine; all nodes
// must start it in the same round with the same params. It takes exactly
// Params.H(n) rounds: the sparse exploration, whose ID-sorted slots become
// Res.Near. Membership is drawn from the node's random stream at
// construction; every later randomized phase draws after it.
func NewComputeMachine(env *sim.Env, p Params, forceInclude bool) *ComputeMachine {
	n := env.N()
	h := p.H(n)
	inS := forceInclude || env.Rand().Float64() < p.SampleProb(n)
	m := &ComputeMachine{}
	var explore *ExploreMachine
	m.prog = sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			explore = NewSparseExploreMachine(env, inS, h)
			return explore
		},
		sim.Finish(func(env *sim.Env) {
			m.Res = Result{InSkeleton: inS, H: h, Near: explore.Heard}
		}),
	)
	return m
}

// Step implements sim.StepProgram.
func (m *ComputeMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// Pipeline returns Algorithm 6 as a sim.Pipeline; force marks the nodes
// included deterministically (nil: none), and the per-node result is the
// node's Result.
func Pipeline(p Params, force func(id int) bool) sim.Pipeline[Result] {
	return func(env *sim.Env, done func(Result)) sim.StepProgram {
		m := NewComputeMachine(env, p, force != nil && force(env.ID()))
		return sim.Then(m, func(*sim.Env) { done(m.Res) })
	}
}

// RepInfo is one publicly known (source, representative, d_h) triple
// produced by Algorithm 7.
type RepInfo struct {
	Source int
	Rep    int
	Dist   int64
}

// RepresentativesMachine is Algorithm 7 as a collective machine: every
// source tags its d_h-closest skeleton node (itself, if it is one) and all
// triples are made public knowledge via token dissemination (O~(sqrt(k))
// rounds for k sources). Sources with no skeleton node within h hops
// (possible only when the w.h.p. event of Lemma C.1 fails) publish Rep = -1.
type RepresentativesMachine struct {
	// Out is the public (source, rep, d_h) list, sorted by source; valid
	// once Step returned true. One copy serves every node that received
	// the same tokens: read-only.
	Out []RepInfo

	prog sim.StepProgram
}

// NewRepresentativesMachine builds the collective Algorithm 7 machine; all
// nodes must start it in the same round with the same kBound, a globally
// known upper bound on the number of sources.
func NewRepresentativesMachine(env *sim.Env, skel Result, isSource bool, kBound int) *RepresentativesMachine {
	m := &RepresentativesMachine{}
	var mine []ncc.Token
	if isSource {
		rep, dist := closestSkeleton(env.ID(), skel)
		mine = append(mine, ncc.Token{A: int64(env.ID()), B: int64(rep), C: dist})
	}
	var diss *ncc.DisseminateMachine
	m.prog = sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			diss = ncc.NewDisseminateMachine(env, mine, kBound, 1, ncc.DisseminateParams{})
			return diss
		},
		sim.Finish(func(env *sim.Env) {
			m.Out = ncc.Derived(env, repsKey{}, diss.Out, repsFromTokens)
		}),
	)
	return m
}

// Step implements sim.StepProgram.
func (m *RepresentativesMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// repsKey is the sim.Agreed slot of the decoded representative list.
type repsKey struct{}

// repsFromTokens decodes and sorts the disseminated representative triples
// (the local tail of Algorithm 7).
func repsFromTokens(all []ncc.Token) []RepInfo {
	out := make([]RepInfo, 0, len(all))
	for _, t := range all {
		out = append(out, RepInfo{Source: int(t.A), Rep: int(t.B), Dist: t.C})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// closestSkeleton returns the skeleton node minimizing (d_h, id) from the
// node's exploration result, or (-1, Inf) if none is within h hops.
func closestSkeleton(self int, skel Result) (int, int64) {
	if skel.InSkeleton {
		return self, 0
	}
	best, bestD := -1, graph.Inf
	for _, e := range skel.Near { // ID order: the smallest ID wins a tie
		if e.Dist < bestD {
			best, bestD = int(e.ID), e.Dist
		}
	}
	return best, bestD
}

// Build assembles the global skeleton graph from all per-node results
// sequentially (test/bench ground truth). It returns the graph over
// compacted indices and the mapping skeleton-index -> original node ID.
func Build(results []Result) (*graph.Graph, []int, error) {
	var ids []int
	for v, r := range results {
		if r.InSkeleton {
			ids = append(ids, v)
		}
	}
	index := map[int]int{}
	for i, id := range ids {
		index[id] = i
	}
	s := graph.New(len(ids))
	for _, id := range ids {
		for _, e := range results[id].Near {
			u, d := int(e.ID), e.Dist
			if u == id {
				continue
			}
			j, ok := index[u]
			if !ok {
				return nil, nil, fmt.Errorf("skeleton: node %d lists non-skeleton neighbor %d", id, u)
			}
			if index[id] < j {
				// Symmetry check: u must agree on the weight.
				if du, ok2 := Find(results[u].Near, id); !ok2 || du.Dist != d {
					return nil, nil, fmt.Errorf("skeleton: edge {%d,%d} asymmetric: %d vs %d (listed: %v)", id, u, d, du.Dist, ok2)
				}
				if err := s.AddEdge(index[id], j, d); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return s, ids, nil
}

// CheckDistancePreservation verifies Lemma C.2 sequentially: the skeleton
// graph is connected and d_S(u, v) = d_G(u, v) for all skeleton pairs.
func CheckDistancePreservation(g *graph.Graph, results []Result) error {
	s, ids, err := Build(results)
	if err != nil {
		return err
	}
	if s.N() == 0 {
		return fmt.Errorf("skeleton: empty skeleton")
	}
	if !s.Connected() {
		return fmt.Errorf("skeleton: not connected (%d nodes)", s.N())
	}
	for i, id := range ids {
		dS := graph.Dijkstra(s, i)
		dG := graph.Dijkstra(g, id)
		for j, jd := range ids {
			if dS[j] != dG[jd] {
				return fmt.Errorf("skeleton: d_S(%d,%d) = %d but d_G = %d", id, jd, dS[j], dG[jd])
			}
		}
	}
	return nil
}

// CheckCoverage verifies the Lemma C.1 consequence used everywhere: every
// node has a skeleton node within h hops, w.h.p. (needed so representatives
// exist and Equation (1) has candidates).
func CheckCoverage(results []Result) error {
	for v, r := range results {
		if len(r.Near) == 0 {
			return fmt.Errorf("skeleton: node %d has no skeleton node within h = %d hops", v, r.H)
		}
	}
	return nil
}
