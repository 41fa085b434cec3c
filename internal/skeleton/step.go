package skeleton

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/ncc"
	"repro/internal/sim"
)

// Step-machine forms of the package's collective operations (see
// sim.StepProgram). These are the hot round loops of the APSP/k-SSP
// pipelines — at n = 16384, LimitedExplore alone accounts for most rounds —
// so they are the first beneficiaries of the goroutine-free engine. Each
// port is message-for-message identical to its goroutine twin.

// ExploreMachine is the step form of LimitedExplore: multi-source
// synchronous Bellman-Ford for a fixed number of rounds. After it finishes,
// Near and Hops hold the dense per-source vectors.
type ExploreMachine struct {
	// Near[u] is the distance estimate for source u (graph.Inf if unheard);
	// Hops[u] the hop distance at which u was first heard (-1 if never).
	// Valid once Step returned true.
	Near []int64
	Hops []int

	loop    sim.Loop
	pending []int32
	// bufs rotate round-for-round like LimitedExplore's (see the comment
	// there): bufs[i&1] is the delta broadcast at loop index i, rewritten
	// no earlier than two barriers after every reader finished with it.
	bufs [2]distUpdates
}

// NewExploreMachine builds the collective exploration machine; all nodes
// must start it in the same round with the same round count. It takes
// exactly `rounds` rounds, like LimitedExplore.
func NewExploreMachine(env *sim.Env, isSource bool, rounds int) *ExploreMachine {
	n := env.N()
	m := &ExploreMachine{
		Near:    make([]int64, n),
		Hops:    make([]int, n),
		pending: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		m.Near[i] = graph.Inf
		m.Hops[i] = -1
		m.pending[i] = -1
	}
	if isSource {
		m.Near[env.ID()] = 0
		m.Hops[env.ID()] = 0
		m.bufs[0] = append(m.bufs[0], distUpdate{Source: env.ID(), Dist: 0, Hops: 0})
	}
	m.loop = sim.Loop{Rounds: rounds, Send: m.send, Recv: m.recv, NextSend: sim.Reactive}
	return m
}

// Step implements sim.StepProgram.
func (m *ExploreMachine) Step(env *sim.Env) bool { return m.loop.Step(env) }

func (m *ExploreMachine) send(env *sim.Env, i int) {
	if len(m.bufs[i&1]) > 0 {
		env.BroadcastLocal(&m.bufs[i&1])
	}
}

func (m *ExploreMachine) recv(env *sim.Env, in sim.Inbox, i int) {
	// Rebuild the buffer the NEXT send will broadcast; the one sent last
	// round is still being read by neighbors this round (see bufs).
	next := m.bufs[(i+1)&1][:0]
	for _, lm := range in.Local {
		ups, ok := lm.Payload.(*distUpdates)
		if !ok {
			continue
		}
		w, _ := env.Graph().Weight(env.ID(), lm.From)
		for _, up := range *ups {
			nd := up.Dist + w
			if nd < m.Near[up.Source] {
				m.Near[up.Source] = nd
				if m.Hops[up.Source] < 0 {
					m.Hops[up.Source] = up.Hops + 1
				}
				u := distUpdate{Source: up.Source, Dist: nd, Hops: up.Hops + 1}
				if j := m.pending[up.Source]; j >= 0 {
					next[j] = u
				} else {
					m.pending[up.Source] = int32(len(next))
					next = append(next, u)
				}
			}
		}
	}
	for _, up := range next {
		m.pending[up.Source] = -1
	}
	slices.SortFunc(next, func(a, b distUpdate) int { return cmp.Compare(a.Source, b.Source) })
	m.bufs[(i+1)&1] = next
}

// FloodVectorsMachine is the step form of FloodVectors: radius-limited
// first-arrival flooding of immutable label vectors.
type FloodVectorsMachine struct {
	// Known maps each heard origin to its (shared, immutable) vector; valid
	// once Step returned true.
	Known Labels

	loop sim.Loop
	bufs [2]floodVecs // rotated like ExploreMachine's delta buffers
}

// NewFloodVectorsMachine builds the collective flood machine; all nodes
// must start it in the same round with the same radius. mine is this node's
// vector (nil unless an origin). It takes exactly `radius` rounds, like
// FloodVectors.
func NewFloodVectorsMachine(env *sim.Env, mine []int64, radius int) *FloodVectorsMachine {
	m := &FloodVectorsMachine{}
	if mine != nil {
		m.Known.Put(uint64(env.ID()), mine)
		m.bufs[0] = append(m.bufs[0], floodVec{Origin: env.ID(), TTL: radius, Values: mine})
	}
	m.loop = sim.Loop{Rounds: radius, Send: m.send, Recv: m.recv, NextSend: sim.Reactive}
	return m
}

// Step implements sim.StepProgram.
func (m *FloodVectorsMachine) Step(env *sim.Env) bool { return m.loop.Step(env) }

func (m *FloodVectorsMachine) send(env *sim.Env, i int) {
	if len(m.bufs[i&1]) > 0 {
		env.BroadcastLocal(&m.bufs[i&1])
	}
}

func (m *FloodVectorsMachine) recv(env *sim.Env, in sim.Inbox, i int) {
	next := m.bufs[(i+1)&1][:0]
	for _, lm := range in.Local {
		vecs, ok := lm.Payload.(*floodVecs)
		if !ok {
			continue
		}
		for _, fv := range *vecs {
			if m.Known.Has(uint64(fv.Origin)) {
				continue
			}
			m.Known.Put(uint64(fv.Origin), fv.Values)
			if fv.TTL > 1 {
				next = append(next, floodVec{Origin: fv.Origin, TTL: fv.TTL - 1, Values: fv.Values})
			}
		}
	}
	m.bufs[(i+1)&1] = next
}

// ComputeMachine is the step form of Compute (Algorithm 6): sample V_S
// membership, then explore for H rounds.
type ComputeMachine struct {
	// Res is this node's skeleton view; valid once Step returned true.
	Res Result

	prog sim.StepProgram
}

// NewComputeMachine builds the collective Algorithm 6 machine; all nodes
// must start it in the same round with the same params. Membership is
// sampled at construction, which is where Compute samples it, so the
// per-node randomness stream stays aligned across the two forms. With
// p.Cache set it is the step form of the cached construction: the
// collective agreement aggregation, then either a zero-round bind or the
// full exploration (re-populating the cache) — the same rounds, messages,
// and branch as the goroutine form.
func NewComputeMachine(env *sim.Env, p Params, forceInclude bool) *ComputeMachine {
	n := env.N()
	h := p.H(n)
	inS := forceInclude || env.Rand().Float64() < p.SampleProb(n)
	m := &ComputeMachine{}
	if p.Cache == nil {
		m.prog = newExploreResultProg(env, m, inS, h)
		return m
	}
	key := keyOf(p, n)
	entry := p.Cache.lookup(key)
	inner := &ComputeMachine{}
	var agg *ncc.AggregateMachine
	m.prog = sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			agg = ncc.NewAggregateMachine(env, entry.mismatch(env.ID(), forceInclude, inS), ncc.AggMax)
			return agg
		},
		func(env *sim.Env) sim.StepProgram {
			p.Cache.traceEvent(env, key, agg.Out == 0)
			if agg.Out == 0 {
				return nil
			}
			inner.prog = newExploreResultProg(env, inner, inS, h)
			return inner
		},
		sim.Finish(func(env *sim.Env) {
			if agg.Out == 0 {
				m.Res = entry.bind(env.ID())
				return
			}
			p.Cache.shared(env, key).store(env.ID(), forceInclude, inner.Res)
			m.Res = inner.Res
		}),
	)
	return m
}

// newExploreResultProg is the uncached construction machine, writing the
// finished result to m.Res (the step twin of exploreResult).
func newExploreResultProg(env *sim.Env, m *ComputeMachine, inS bool, h int) sim.StepProgram {
	n := env.N()
	var explore *ExploreMachine
	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			explore = NewExploreMachine(env, inS, h)
			return explore
		},
		sim.Finish(func(env *sim.Env) {
			m.Res = resultFromVectors(n, inS, h, explore.Near, explore.Hops)
		}),
	)
}

// Step implements sim.StepProgram.
func (m *ComputeMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// RepresentativesMachine is the step form of ComputeRepresentatives
// (Algorithm 7): every source tags its closest skeleton node and the
// triples become public knowledge by token dissemination.
type RepresentativesMachine struct {
	// Out is the public (source, rep, d_h) list, sorted by source; valid
	// once Step returned true.
	Out []RepInfo

	prog sim.StepProgram
}

// NewRepresentativesMachine builds the collective Algorithm 7 machine; all
// nodes must start it in the same round with the same kBound, exactly like
// ComputeRepresentatives.
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
			m.Out = repsFromTokens(diss.Out)
		}),
	)
	return m
}

// Step implements sim.StepProgram.
func (m *RepresentativesMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// distUpdates is the local-mode payload of the Bellman-Ford wave: a batch
// of distance updates.
type distUpdates []distUpdate

// PayloadWords implements sim.WordSized: each update carries a source ID, a
// distance, and a hop count.
func (d distUpdates) PayloadWords() int64 { return 3 * int64(len(d)) }

// floodVecs is the local-mode payload of FloodVectors: a batch of label
// vectors. The vectors are shared across the whole flood, but every local
// transmission carries their full contents, so the wire charge counts them
// in full.
type floodVecs []floodVec

// PayloadWords implements sim.WordSized: each vector is its origin, TTL,
// and one word per subject.
func (f floodVecs) PayloadWords() int64 {
	words := int64(0)
	for _, fv := range f {
		words += 2 + int64(len(fv.Values))
	}
	return words
}
