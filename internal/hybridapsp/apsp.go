// Package hybridapsp implements the paper's headline result, Theorem 1.1:
// exact all-pairs shortest paths in the HYBRID model in O~(sqrt(n)) rounds,
// together with the O~(n^(2/3)) APSP of Augustine et al. [3] that it
// improves on, and a pure-LOCAL baseline (Θ(D) rounds) for the model
// comparison experiment.
//
// Theorem 1.1's algorithm (§3):
//
//  1. Build a skeleton S with sampling probability 1/sqrt(n)
//     (x = sqrt(n)), learning dd(v, s) to nearby skeleton nodes, and run a
//     second h-round exploration with all nodes as sources so close pairs
//     are solved exactly.
//  2. Make E_S public knowledge by token dissemination (O~(n/x) = O~(sqrt n)
//     rounds); every node locally computes APSP on S.
//  3. Every node v now knows d(v, s) for ALL skeleton nodes s (min over
//     nearby skeletons s1 of dd(v,s1) + d_S(s1,s)). The reverse direction
//     is the bottleneck [3] solved by broadcasting Θ(n²/x) labels; the
//     paper's fix is one token routing instance: every v sends one token
//     per skeleton node s carrying d(v, s) (senders V, receivers V_S,
//     kS = |V_S|, kR = n — Theorem 2.2 gives O~(n/x + sqrt(n)) rounds).
//  4. Each skeleton node floods its n distance labels to its h-hop
//     neighborhood; each node v computes
//     d(v, u) = min(dd_local(v, u), min_{s near v} dd(v,s) + d(s,u)).
//
// Total: O~(x + n/x + sqrt(n)) = O~(sqrt(n)) at x = sqrt(n).
package hybridapsp

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/ncc"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// Params tunes the APSP run. The zero value reproduces Theorem 1.1 and, for
// the baseline, [3].
type Params struct {
	// Routing tunes the token routing protocol.
	Routing routing.Params
}

// The skeleton exponents: sampling probability n^(x-1). Theorem 1.1
// balances x against n/x at x = 1/2; the [3] baseline's label broadcast
// balances at x = 1/3.
const (
	theorem11X = 0.5
	baselineX  = 1.0 / 3.0
)

// NewComputeMachine runs the Theorem 1.1 algorithm collectively (see
// sim.StepProgram), composed from the skeleton/ncc/routing machines. done
// receives this node's exact distances to every node (graph.Inf for
// unreachable) when the machine finishes.
func NewComputeMachine(env *sim.Env, params Params, done func([]int64)) sim.StepProgram {
	sp := skeleton.Params{X: theorem11X}
	n := env.N()
	h := sp.H(n)

	var skelM *skeleton.ComputeMachine
	var exploreM *skeleton.ExploreMachine
	var pub *publishMachine
	var sessM *routing.SessionMachine
	var routeM *routing.RouteMachine
	var floodM *skeleton.FloodVectorsMachine
	var skel skeleton.Result
	var local []int64
	var send []routing.Token
	var expect []routing.Label

	return sim.Sequence(
		// Phase 1: skeleton + the all-sources exploration for close pairs.
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, false)
			return skelM
		},
		func(env *sim.Env) sim.StepProgram {
			skel = skelM.Res
			exploreM = skeleton.NewExploreMachine(env, true, h)
			return exploreM
		},
		// Phase 2: make E_S public knowledge, solve APSP on S locally.
		func(env *sim.Env) sim.StepProgram {
			local = exploreM.Near
			pub = newPublishMachine(env, skel)
			return pub
		},
		// Phase 3: token routing — every node sends d(v, s), the best route
		// via a nearby skeleton node, to each s ∈ V_S.
		func(env *sim.Env) sim.StepProgram {
			members := pub.Members
			send = make([]routing.Token, 0, len(members))
			for i, s := range members {
				send = append(send, routing.Token{
					Label: routing.Label{S: env.ID(), R: s, I: 0},
					Value: bestViaSkeleton(skel, pub.Rank, pub.DS, i),
				})
			}
			if skel.InSkeleton {
				expect = make([]routing.Label, 0, n)
				for v := 0; v < n; v++ {
					expect = append(expect, routing.Label{S: v, R: env.ID(), I: 0})
				}
			}
			sessM = routing.NewSessionMachine(env, true, skel.InSkeleton,
				len(members), n, 1.0, sp.SampleProb(n), params.Routing)
			return sessM
		},
		func(env *sim.Env) sim.StepProgram {
			routeM = routing.NewRouteMachine(sessM.Out, send, expect)
			return routeM
		},
		// Phase 4: skeleton nodes flood their distance vectors to radius h.
		func(env *sim.Env) sim.StepProgram {
			got := routeM.Out
			var mine []int64
			if skel.InSkeleton && len(got) > 0 {
				mine = make([]int64, n)
				for v := range mine {
					mine[v] = -1
				}
				for _, t := range got {
					mine[t.S] = t.Value
				}
			}
			floodM = skeleton.NewFloodVectorsMachine(env, mine, h)
			return floodM
		},
		// Final combine: local estimate vs routes through nearby skeletons.
		// The dense exploration vector already holds Inf for unreached
		// nodes, so it doubles as the output accumulator.
		sim.Finish(func(env *sim.Env) {
			labels := &floodM.Known
			out := local
			for _, s := range skel.Near {
				vec, ok := labels.Get(uint64(s.ID))
				if !ok {
					continue
				}
				for v := 0; v < n; v++ {
					if dv := vec[v]; dv >= 0 {
						if cand := graph.SatAdd(s.Dist, dv); cand < out[v] {
							out[v] = cand
						}
					}
				}
			}
			done(out)
		}),
	)
}

// publishMachine makes V_S and E_S public knowledge (token dissemination
// sized by two aggregations of the edge counts) and locally solves APSP on
// the skeleton graph.
type publishMachine struct {
	// The node's view of the published skeleton; valid once Step returned
	// true.
	*skeletonAPSP

	prog sim.StepProgram
}

// skeletonAPSP is what a node derives from the disseminated edge tokens:
// Members is the sorted skeleton member list, Rank its inverse, and DS the
// all-pairs distance matrix of the skeleton graph (indices = member ranks).
// One copy serves every node that received the same tokens, so it is
// read-only.
type skeletonAPSP struct {
	Members []int
	Rank    map[int]int
	DS      [][]int64
}

// The sim.Agreed slots of this package.
type (
	skeletonAPSPKey struct{}
	labelMatrixKey  struct{}
)

func newPublishMachine(env *sim.Env, skel skeleton.Result) *publishMachine {
	pm := &publishMachine{}
	// Edge tokens: the smaller-ID endpoint owns the edge so the published
	// estimate is consistent everywhere (the two endpoints' sandwich
	// estimates may differ; either is valid, one must be chosen). A
	// self-loop marker announces membership for isolated skeleton nodes.
	// Near is in ID order, so the tokens are too.
	var mine []ncc.Token
	myEdges := 0
	if skel.InSkeleton {
		mine = append(mine, ncc.Token{A: int64(env.ID()), B: int64(env.ID()), C: 0}) // member marker
		for _, s := range skel.Near {
			if int(s.ID) > env.ID() {
				mine = append(mine, ncc.Token{A: int64(env.ID()), B: int64(s.ID), C: s.Dist})
			}
		}
		myEdges = len(mine)
	}
	var aggMax, aggSum *ncc.AggregateMachine
	var diss *ncc.DisseminateMachine
	pm.prog = sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			aggMax = ncc.NewAggregateMachine(env, int64(myEdges), ncc.AggMax)
			return aggMax
		},
		func(env *sim.Env) sim.StepProgram {
			aggSum = ncc.NewAggregateMachine(env, int64(myEdges), ncc.AggSum)
			return aggSum
		},
		func(env *sim.Env) sim.StepProgram {
			diss = ncc.NewDisseminateMachine(env, mine, int(aggSum.Out), int(aggMax.Out), ncc.DisseminateParams{})
			return diss
		},
		sim.Finish(func(env *sim.Env) {
			pm.skeletonAPSP = ncc.Derived(env, skeletonAPSPKey{}, diss.Out, skeletonAPSPFromTokens)
		}),
	)
	return pm
}

// Step implements sim.StepProgram.
func (pm *publishMachine) Step(env *sim.Env) bool { return pm.prog.Step(env) }

// skeletonAPSPFromTokens rebuilds the skeleton graph from the disseminated
// edge tokens and solves APSP on it locally — the local tail of
// publishMachine.
func skeletonAPSPFromTokens(all []ncc.Token) *skeletonAPSP {
	memberSet := map[int]bool{}
	for _, t := range all {
		memberSet[int(t.A)] = true
		memberSet[int(t.B)] = true
	}
	members := make([]int, 0, len(memberSet))
	for id := range memberSet {
		members = append(members, id)
	}
	sort.Ints(members)
	rank := make(map[int]int, len(members))
	for i, id := range members {
		rank[id] = i
	}

	s := graph.New(len(members))
	for _, t := range all {
		u, v := rank[int(t.A)], rank[int(t.B)]
		if u != v && !s.HasEdge(u, v) {
			s.MustAddEdge(u, v, t.C)
		}
	}
	return &skeletonAPSP{Members: members, Rank: rank, DS: graph.APSP(s)}
}

// bestViaSkeleton returns min over nearby skeleton s1 of dd(v,s1)+d_S(s1,s).
func bestViaSkeleton(skel skeleton.Result, rank map[int]int, dS [][]int64, target int) int64 {
	best := graph.Inf
	for _, s1 := range skel.Near {
		i, ok := rank[int(s1.ID)]
		if !ok {
			continue
		}
		if cand := graph.SatAdd(s1.Dist, dS[i][target]); cand < best {
			best = cand
		}
	}
	return best
}

// NewBaselineComputeMachine runs the O~(n^(2/3)) APSP of [3] (the algorithm
// Theorem 1.1 improves on): identical skeleton machinery at x = n^(2/3)
// (sampling exponent 1/3), but instead of token routing, ALL limited
// distance labels dd(v, s) for (s, v) ∈ V_S × V are broadcast with token
// dissemination — Θ(n²/x) tokens, hence Θ~(n/sqrt(x)) rounds, optimized at
// x = n^(2/3).
func NewBaselineComputeMachine(env *sim.Env, params Params, done func([]int64)) sim.StepProgram {
	sp := skeleton.Params{X: baselineX}
	n := env.N()
	h := sp.H(n)

	var skelM *skeleton.ComputeMachine
	var exploreM *skeleton.ExploreMachine
	var pub *publishMachine
	var aggMax, aggSum *ncc.AggregateMachine
	var diss *ncc.DisseminateMachine
	var skel skeleton.Result
	var local []int64
	var mine []ncc.Token

	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, false)
			return skelM
		},
		func(env *sim.Env) sim.StepProgram {
			skel = skelM.Res
			exploreM = skeleton.NewExploreMachine(env, true, h)
			return exploreM
		},
		func(env *sim.Env) sim.StepProgram {
			local = exploreM.Near
			pub = newPublishMachine(env, skel)
			return pub
		},
		// Broadcast every dd(v, s) label — the [3] bottleneck step.
		func(env *sim.Env) sim.StepProgram {
			mine = make([]ncc.Token, 0, len(skel.Near))
			for _, s := range skel.Near {
				mine = append(mine, ncc.Token{A: int64(s.ID), B: int64(env.ID()), C: s.Dist})
			}
			aggMax = ncc.NewAggregateMachine(env, int64(len(mine)), ncc.AggMax)
			return aggMax
		},
		func(env *sim.Env) sim.StepProgram {
			aggSum = ncc.NewAggregateMachine(env, int64(len(mine)), ncc.AggSum)
			return aggSum
		},
		func(env *sim.Env) sim.StepProgram {
			diss = ncc.NewDisseminateMachine(env, mine, int(aggSum.Out), int(aggMax.Out), ncc.DisseminateParams{})
			return diss
		},
		sim.Finish(func(env *sim.Env) {
			members, rank, dS := pub.Members, pub.Rank, pub.DS
			lab := sim.Agreed(env, labelMatrixKey{},
				func(m *labelMatrix) bool {
					return slices.Equal(m.members, members) && ncc.SameTokens(m.tokens, diss.Out)
				},
				func() *labelMatrix { return newLabelMatrix(pub.skeletonAPSP, diss.Out, n) }).lab
			// min over s1 near me, s2 near v of dd(me,s1)+d_S(s1,s2)+dd(v,s2);
			// the dense exploration vector doubles as the accumulator.
			out := local
			for _, s1 := range skel.Near {
				i, ok := rank[int(s1.ID)]
				if !ok {
					continue
				}
				for j := range members {
					row := lab[j*n : (j+1)*n]
					base := graph.SatAdd(s1.Dist, dS[i][j])
					if base >= graph.Inf {
						continue
					}
					for v := 0; v < n; v++ {
						if dv := row[v]; dv >= 0 {
							if cand := graph.SatAdd(base, dv); cand < out[v] {
								out[v] = cand
							}
						}
					}
				}
			}
			done(out)
		}),
	)
}

// labelMatrix is the [3] baseline's view of the disseminated labels: dd(v, s)
// as a dense (skeleton rank, node) matrix, -1 = absent — with the two inputs
// it was built from, the member list that ranks its rows and the label
// tokens. Read-only: one copy serves every node that holds the same two.
type labelMatrix struct {
	members []int
	tokens  []ncc.Token
	lab     []int64
}

func newLabelMatrix(skel *skeletonAPSP, tokens []ncc.Token, n int) *labelMatrix {
	lab := make([]int64, len(skel.Members)*n)
	for i := range lab {
		lab[i] = -1
	}
	for _, t := range tokens {
		if i, ok := skel.Rank[int(t.A)]; ok {
			lab[i*n+int(t.B)] = t.C
		}
	}
	return &labelMatrix{members: skel.Members, tokens: tokens, lab: lab}
}

// NewLocalComputeMachine is the pure-LOCAL baseline: rounds of whole-graph
// flooding. In the LOCAL model Θ(D) rounds are necessary and sufficient for
// APSP (paper §1); rounds must be at least the hop diameter for exact
// results. done receives the dense vector, graph.Inf marking unreached
// nodes.
func NewLocalComputeMachine(env *sim.Env, rounds int, done func([]int64)) sim.StepProgram {
	exploreM := skeleton.NewExploreMachine(env, true, rounds)
	return sim.Then(exploreM, func(*sim.Env) { done(exploreM.Near) })
}

// Pipeline returns the Theorem 1.1 exact APSP as a sim.Pipeline; the
// per-node result is the node's dense distance vector.
func Pipeline(params Params) sim.Pipeline[[]int64] {
	return func(env *sim.Env, done func([]int64)) sim.StepProgram {
		return NewComputeMachine(env, params, done)
	}
}

// BaselinePipeline returns the O~(n^(2/3)) APSP of [3] as a sim.Pipeline.
func BaselinePipeline(params Params) sim.Pipeline[[]int64] {
	return func(env *sim.Env, done func([]int64)) sim.StepProgram {
		return NewBaselineComputeMachine(env, params, done)
	}
}

// LocalPipeline returns the Θ(D) pure-LOCAL flooding baseline as a
// sim.Pipeline.
func LocalPipeline(rounds int) sim.Pipeline[[]int64] {
	return func(env *sim.Env, done func([]int64)) sim.StepProgram {
		return NewLocalComputeMachine(env, rounds, done)
	}
}
