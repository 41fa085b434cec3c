package skeleton

import (
	"cmp"
	"slices"

	"repro/internal/flatmap"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/sim"
)

// ExploreMachine runs `rounds` rounds of multi-source synchronous
// Bellman-Ford over the local network: every node with isSource starts a
// wave, and afterwards every node holds, for each source within `rounds`
// hops, an estimate dd with d <= dd <= d_rounds (see Result.Near for why
// the sandwich suffices), as dense per-source vectors indexed by node ID.
//
// This is the local-exploration subroutine shared by Algorithm 6
// (sources = skeleton nodes) and the APSP/k-SSP algorithms' "learn
// G up to depth ηh" steps (sources = all nodes, paper Fact 4.2). At
// n = 16384 it alone accounts for most rounds of the APSP pipeline.
type ExploreMachine struct {
	// Near[u] is the distance estimate for source u (graph.Inf if unheard);
	// Hops[u] the hop distance at which u was first heard (-1 if never).
	// Valid once Step returned true.
	Near []int64
	Hops []int32

	loop sim.Loop
	// The delta buffers rotate: bufs[i&1] is broadcast at loop index i, read
	// by neighbors while they process round i, and not written again before
	// round i+2, when every reader has long taken the i+1 barrier — the
	// same ownership window as the engine's double-buffered inboxes. The
	// rotation is what makes steady-state rounds allocation-free: after the
	// wave's peak, both buffers hold enough capacity for every later round.
	bufs [2]distUpdates
}

// NewExploreMachine builds the collective exploration machine; all nodes
// must start it in the same round with the same round count. It takes
// exactly `rounds` rounds.
func NewExploreMachine(env *sim.Env, isSource bool, rounds int) *ExploreMachine {
	n := env.N()
	m := &ExploreMachine{
		Near: make([]int64, n),
		Hops: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		m.Near[i] = graph.Inf
		m.Hops[i] = -1
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
					m.Hops[up.Source] = int32(up.Hops + 1)
				}
				next = append(next, distUpdate{Source: up.Source, Dist: nd, Hops: up.Hops + 1})
			}
		}
	}
	// A source improved more than once this round staged one update per
	// improvement, each strictly lighter than the one before: forward the
	// lightest, which is the estimate Near kept.
	slices.SortFunc(next, func(a, b distUpdate) int {
		if c := cmp.Compare(a.Source, b.Source); c != 0 {
			return c
		}
		return cmp.Compare(a.Dist, b.Dist)
	})
	next = slices.CompactFunc(next, func(a, b distUpdate) bool { return a.Source == b.Source })
	m.bufs[(i+1)&1] = next
}

// distUpdates is the local-mode payload of the Bellman-Ford wave: a batch
// of distance updates.
type distUpdates []distUpdate

// PayloadWords implements sim.WordSized: each update carries a source ID, a
// distance, and a hop count.
func (d distUpdates) PayloadWords() int64 { return 3 * int64(len(d)) }

// Labels is the result of FloodVectorsMachine: the heard label vectors keyed by
// origin node ID, a flat open-addressed map written once per first arrival
// (first-arrival dedup is the flood kernel's, see package flood).
type Labels = flatmap.Map[[]int64]

// FloodVectorsMachine floods this node's label vector (nil unless this node
// is an origin) to the given radius: the vector travels `radius` hops from
// its origin with first-arrival forwarding. Afterwards Known holds every
// vector this node heard, keyed by origin (including its own).
//
// A vector is the dense form of the paper's label set
// 〈value, ID(origin), subject〉 for a fixed origin: Values[subject] is the
// label's value, -1 marks subjects the origin published no label for. An
// origin's labels always travel as one batch (they enter the flood
// together and deduplication is by origin), so vector flooding is
// round-for-round and message-for-message identical to flooding the
// records individually — but a vector is built once and *shared* by every
// node that hears it, which turns the per-node Θ(|origins|·|subjects|)
// storage and hashing of the record form into a per-run cost. Callers must
// treat received vectors as immutable.
type FloodVectorsMachine struct {
	// Known maps each heard origin to its (shared, immutable) vector; valid
	// once Step returned true.
	Known Labels

	flood flood.State[[]int64]
}

// NewFloodVectorsMachine builds the collective flood machine; all nodes
// must start it in the same round with the same radius. mine is this node's
// vector (nil unless an origin). It takes exactly `radius` rounds: the flood
// kernel's round count is the TTL a vector would carry, so none is stored.
func NewFloodVectorsMachine(env *sim.Env, mine []int64, radius int) *FloodVectorsMachine {
	m := &FloodVectorsMachine{}
	// The vectors are shared across the whole flood, but every local
	// transmission carries their full contents, so the wire charge counts
	// them in full: origin, TTL, and one word per subject.
	m.flood.Start(env, 0, radius,
		func(values []int64) int64 { return 2 + int64(len(values)) },
		func(origin int, values []int64) { m.Known.Put(uint64(origin), values) })
	if mine != nil {
		m.flood.Inject(env.ID(), mine)
	}
	return m
}

// Step implements sim.StepProgram.
func (m *FloodVectorsMachine) Step(env *sim.Env) bool { return m.flood.Step(env) }
