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

	fe := new(frontEnd)
	var sessM *routing.SessionMachine
	var routeM *routing.RouteMachine
	var floodM *skeleton.FloodVectorsMachine
	var send []routing.Token
	var expect []routing.Label
	var complete []bool

	return sim.Sequence(fe.phases(sp,
		// Phase 3: token routing — every node sends d(v, s), the best route
		// via a nearby skeleton node, to each s ∈ V_S.
		func(env *sim.Env) sim.StepProgram {
			members := fe.pub.Members
			var buf [viaBuf]via
			vias := fe.pub.viaSet(buf[:0], fe.skel.Near, nil, nil)
			send = make([]routing.Token, len(members))
			for i, s := range members {
				send[i] = routing.Token{Label: routing.Label{S: env.ID(), R: s, I: 0}, Value: fe.pub.armed(vias, i)}
			}
			if fe.skel.InSkeleton {
				expect = make([]routing.Label, 0, n)
				for v := 0; v < n; v++ {
					expect = append(expect, routing.Label{S: v, R: env.ID(), I: 0})
				}
			}
			sessM = routing.NewSessionMachine(env, true, fe.skel.InSkeleton,
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
			if fe.skel.InSkeleton && len(got) > 0 {
				mine = make([]int64, n)
				for v := range mine {
					mine[v] = -1
				}
				for _, t := range got {
					mine[t.S] = t.Value
				}
			}
			// Whether each origin's vector has no hole, written by the
			// origin and read where the vector was heard (viaSet lets only
			// a complete vector dominate; see sim.Env.SharedOnce).
			complete = env.SharedOnce("hybridapsp.complete", func() interface{} {
				return make([]bool, n)
			}).([]bool)
			complete[env.ID()] = mine != nil && !slices.Contains(mine, -1)
			floodM = skeleton.NewFloodVectorsMachine(env, mine, h)
			return floodM
		},
		// Final combine: local estimate vs routes through nearby skeletons.
		sim.Finish(func(env *sim.Env) {
			var buf [viaBuf]via
			out := fe.local
			combine(out, fe.pub.viaSet(buf[:0], fe.skel.Near, &floodM.Known, complete))
			done(out)
		}),
	)...)
}

// phase is one entry of a sim.Sequence.
type phase = func(*sim.Env) sim.StepProgram

// frontEnd is what Theorem 1.1 and the [3] baseline share, phases 1 and 2:
// the skeleton, the all-sources exploration to its radius h, which solves
// close pairs exactly, and the published skeleton. Each field is valid once
// the phase that sets it has run.
type frontEnd struct {
	skel skeleton.Result
	// The exploration's dense vector: it holds Inf for unreached nodes, so
	// it doubles as the output accumulator.
	local []int64
	pub   *publishMachine
}

// phases returns the front end's phases followed by rest, the caller's: one
// flat list for sim.Sequence, since a nested Sequence costs allocations per
// node.
func (fe *frontEnd) phases(sp skeleton.Params, rest ...phase) []phase {
	var skelM *skeleton.ComputeMachine
	var exploreM *skeleton.ExploreMachine
	ps := append(make([]phase, 0, 3+len(rest)),
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, false)
			return skelM
		},
		func(env *sim.Env) sim.StepProgram {
			fe.skel = skelM.Res
			exploreM = skeleton.NewExploreMachine(env, true, sp.H(env.N()))
			return exploreM
		},
		// Make E_S public knowledge, solve APSP on S locally.
		func(env *sim.Env) sim.StepProgram {
			fe.local = exploreM.Near
			fe.pub = newPublishMachine(env, fe.skel)
			return fe.pub
		})
	return append(ps, rest...)
}

// disseminate returns the phases of one sized token dissemination followed
// by rest, one flat list for sim.Sequence: Lemma B.2's aggregations of the
// token counts, the largest and the total, then Lemma B.1's dissemination of
// the node's tokens, which tokens returns in the first phase, sized by them
// and left in *diss.
func disseminate(tokens func(env *sim.Env) []ncc.Token, diss **ncc.DisseminateMachine, rest ...phase) []phase {
	var mine []ncc.Token
	var aggMax, aggSum *ncc.AggregateMachine
	ps := append(make([]phase, 0, 3+len(rest)),
		func(env *sim.Env) sim.StepProgram {
			mine = tokens(env)
			aggMax = ncc.NewAggregateMachine(env, int64(len(mine)), ncc.AggMax)
			return aggMax
		},
		func(env *sim.Env) sim.StepProgram {
			aggSum = ncc.NewAggregateMachine(env, int64(len(mine)), ncc.AggSum)
			return aggSum
		},
		func(env *sim.Env) sim.StepProgram {
			*diss = ncc.NewDisseminateMachine(env, mine, int(aggSum.Out), int(aggMax.Out), ncc.DisseminateParams{})
			return *diss
		})
	return append(ps, rest...)
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
	var diss *ncc.DisseminateMachine
	pm.prog = sim.Sequence(disseminate(func(env *sim.Env) (mine []ncc.Token) {
		// Edge tokens: the smaller-ID endpoint owns the edge so the
		// published estimate is consistent everywhere (the two endpoints'
		// sandwich estimates may differ; either is valid, one must be
		// chosen). A self-loop marker announces membership for isolated
		// skeleton nodes. Near is in ID order, so the tokens are too.
		if skel.InSkeleton {
			mine = append(mine, ncc.Token{A: int64(env.ID()), B: int64(env.ID()), C: 0}) // member marker
			for _, s := range skel.Near {
				if int(s.ID) > env.ID() {
					mine = append(mine, ncc.Token{A: int64(env.ID()), B: int64(s.ID), C: s.Dist})
				}
			}
		}
		return mine
	}, &diss, sim.Finish(func(env *sim.Env) {
		pm.skeletonAPSP = ncc.Derived(env, skeletonAPSPKey{}, diss.Out, skeletonAPSPFromTokens)
	}))...)
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

// via is a nearby skeleton node as a way on to other nodes: its rank in the
// published member list (-1 if it is not in it), this node's distance
// estimate to it and, in the final combine, its flooded label vector.
// dominant marks an entry that may stand in for others (see viaSet).
type via struct {
	dist     int64
	vec      []int64
	rank     int32
	dominant bool
}

// viaBuf is the via-set capacity a caller keeps on its stack: above it,
// viaSet's appends allocate.
const viaBuf = 64

// viaSet appends to dst the entries of near, this node's nearby skeleton
// nodes, that no other entry dominates, and returns the result. The three
// minimums over nearby skeleton nodes s — the phase 3 arming,
// min_s dd(v,s) + d_S(s,x) per skeleton target x; the [3] baseline's combine,
// which is that arming followed by labels; and the final combine,
// min_s dd(v,s) + vec_s[u] per node u — take only these entries.
//
// t dominates s when t.dist + d_S(t,s) <= s.dist. d_S is the exact APSP of
// one skeleton graph, so it obeys the triangle inequality and, for every
// target x,
//
//	t.dist + d_S(t,x) <= t.dist + d_S(t,s) + d_S(s,x) <= s.dist + d_S(s,x):
//
// dropping s leaves the arming's minimum, and the baseline's, as it was.
// In the final combine vec_s[u] is u's armed value
// min_{s1 near u} dd(u,s1) + d_S(s1,s) under the same d_S, so vec_t[u] <=
// d_S(t,s) + vec_s[u] by the same inequality — but only where vec_t has a
// label. There labels is the flooded vectors: an entry needs its vector
// heard, and it may dominate only if complete marks that vector as having
// no hole (-1); with labels nil every member entry may dominate. Domination
// is transitive and strict in dist (two members are at least one apart in
// S), so a dominated entry has an undominated dominator nearer than itself:
// keeping the nearest remaining entry and dropping what it dominates, until
// none remains, keeps exactly the undominated entries — never none, if
// there was one. An entry outside the member list (a node that missed the
// publication) has no d_S row: it is kept in the combine, never dominating
// nor dominated, and skipped elsewhere. The result is in ascending dist.
func (sk *skeletonAPSP) viaSet(dst []via, near []skeleton.Heard, labels *skeleton.Labels, complete []bool) []via {
	start := len(dst)
	for _, s := range near {
		e := via{dist: s.Dist, rank: -1, dominant: true}
		if labels != nil {
			var ok bool
			if e.vec, ok = labels.Get(uint64(s.ID)); !ok {
				continue
			}
			e.dominant = complete[s.ID]
		}
		if r, ok := sk.Rank[int(s.ID)]; ok {
			e.rank = int32(r)
		} else if labels == nil {
			continue
		}
		dst = append(dst, e)
	}
	// Keep the nearest remaining entry and drop what it dominates, until
	// none remains.
	kept := start
	for rest := dst[start:]; len(rest) > 0; {
		m := 0
		for i := range rest {
			if rest[i].dist < rest[m].dist {
				m = i
			}
		}
		t := rest[m]
		rest[m] = rest[0]
		rest = rest[1:]
		dst[kept] = t
		kept++
		if !t.dominant || t.rank < 0 {
			continue
		}
		row, j := sk.DS[t.rank], 0
		for _, s := range rest {
			if s.rank < 0 || graph.SatAdd(t.dist, row[s.rank]) > s.dist {
				rest[j] = s
				j++
			}
		}
		rest = rest[:j]
	}
	return dst[:kept]
}

// armed returns min over vias of dist + d_S(·, x) for the member of rank x:
// the phase 3 arming's value for x, Inf if no via reaches it.
func (sk *skeletonAPSP) armed(vias []via, x int) int64 {
	best := graph.Inf
	for _, e := range vias {
		best = min(best, graph.SatAdd(e.dist, sk.DS[e.rank][x]))
	}
	return best
}

// combine lowers out[u] to min over vias of dist + vec[u] for every node u:
// Theorem 1.1's final combine, vias from viaSet with the flooded vectors.
func combine(out []int64, vias []via) {
	for _, e := range vias {
		for u, du := range e.vec[:len(out)] {
			out[u] = min(out[u], e.dist+noHole(du))
		}
	}
}

// combineLabels lowers out[u] to min over members s and vias t of dist_t +
// d_S(t,s) + lab_s[u] for every node u, lab being the [3] baseline's label
// matrix (rows by member rank, -1 = no label): the arming's value for s
// once per s, then its row.
func (sk *skeletonAPSP) combineLabels(out []int64, vias []via, lab []int64) {
	n := len(out)
	for s := range sk.Members {
		base := sk.armed(vias, s)
		if base >= graph.Inf {
			continue
		}
		for u, du := range lab[s*n : (s+1)*n] {
			out[u] = min(out[u], base+noHole(du))
		}
	}
}

// noHole returns a label read as a distance: a hole (-1), above Inf as an
// unsigned number, reads as Inf, as does anything above Inf. Added to a
// finite distance and taken the minimum with an entry at most Inf, it never
// wins — the branch of "skip holes" without the branch.
func noHole(d int64) int64 { return int64(min(uint64(d), uint64(graph.Inf))) }

// NewBaselineComputeMachine runs the O~(n^(2/3)) APSP of [3] (the algorithm
// Theorem 1.1 improves on): identical skeleton machinery at x = n^(2/3)
// (sampling exponent 1/3), but instead of token routing, ALL limited
// distance labels dd(v, s) for (s, v) ∈ V_S × V are broadcast with token
// dissemination — Θ(n²/x) tokens, hence Θ~(n/sqrt(x)) rounds, optimized at
// x = n^(2/3).
func NewBaselineComputeMachine(env *sim.Env, params Params, done func([]int64)) sim.StepProgram {
	fe := new(frontEnd)
	var diss *ncc.DisseminateMachine
	return sim.Sequence(fe.phases(skeleton.Params{X: baselineX},
		// Broadcast every dd(v, s) label — the [3] bottleneck step.
		disseminate(func(env *sim.Env) []ncc.Token {
			mine := make([]ncc.Token, 0, len(fe.skel.Near))
			for _, s := range fe.skel.Near {
				mine = append(mine, ncc.Token{A: int64(s.ID), B: int64(env.ID()), C: s.Dist})
			}
			return mine
		}, &diss, sim.Finish(func(env *sim.Env) {
			lab := sim.Agreed(env, labelMatrixKey{},
				func(m *labelMatrix) bool {
					return slices.Equal(m.members, fe.pub.Members) && ncc.SameTokens(m.tokens, diss.Out)
				},
				func() *labelMatrix { return newLabelMatrix(fe.pub.skeletonAPSP, diss.Out, env.N()) }).lab
			var buf [viaBuf]via
			out := fe.local
			fe.pub.combineLabels(out, fe.pub.viaSet(buf[:0], fe.skel.Near, nil, nil), lab)
			done(out)
		}))...)...)
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
