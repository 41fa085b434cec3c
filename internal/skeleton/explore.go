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
// the sandwich suffices) and the hop distance at which it first heard it.
//
// This is the local-exploration subroutine shared by Algorithm 6
// (sources = skeleton nodes) and the APSP/k-SSP algorithms' "learn
// G up to depth ηh" steps (sources = all nodes, paper Fact 4.2). At
// n = 16384 it alone accounts for most rounds of the APSP pipeline.
//
// It comes in two forms that run the same relaxation loop and differ only
// in how a source finds its slot — the index of its estimate and
// first-arrival hop. The dense form (NewExploreMachine) has one slot per
// node, the source's ID, for explorations whose sources are every node. The
// sparse form (NewSparseExploreMachine) opens a slot on a source's first
// arrival and finds it again through a source → slot map, so a node holds
// O(sources heard) rather than O(n): Algorithm 6 samples Θ(n^x) sources,
// k-SSP's ηh exploration has k.
type ExploreMachine struct {
	// Dense form. Near[u] is the distance estimate for source u (graph.Inf
	// if unheard); Hops[u] the hop distance at which u was first heard (-1 if
	// never). Valid once Step returned true.
	Near []int64
	Hops []int32
	// Sparse form. Heard holds one entry per source heard, sorted by ID.
	// Valid once Step returned true.
	Heard []Heard

	// dist[s] and hop[s] are the estimate and first-arrival hop of the
	// source in slot s: Near and Hops themselves in the dense form. The
	// sparse form's slots are in first-arrival order, ids[s] their sources
	// and slot the way back; all three go when Heard is made.
	dist   []int64
	hop    []int32
	sparse bool
	ids    []int32
	slot   flatmap.Map[int32]

	loop sim.Loop
	// The delta buffers rotate: bufs[i&1] is broadcast at loop index i, read
	// by neighbors while they process round i, and not written again before
	// round i+2, when every reader has long taken the i+1 barrier — the
	// same ownership window as the engine's double-buffered inboxes. The
	// rotation is what makes steady-state rounds allocation-free: after the
	// wave's peak, both buffers hold enough capacity for every later round.
	bufs [2]distUpdates
}

// Heard is what an exploration leaves at a node for one source it heard:
// the source's ID, the distance estimate, and the hop distance of the first
// arrival.
type Heard struct {
	Dist int64
	ID   int32
	Hops int32
}

// Find returns the entry of source u in an ID-sorted list (Result.Near, a
// finished sparse exploration's Heard).
func Find(near []Heard, u int) (Heard, bool) {
	i, ok := slices.BinarySearchFunc(near, u, func(e Heard, u int) int { return cmp.Compare(int(e.ID), u) })
	if !ok {
		return Heard{}, false
	}
	return near[i], true
}

// NewExploreMachine builds the dense collective exploration machine; all
// nodes must start it in the same round with the same round count. It takes
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
	m.dist, m.hop = m.Near, m.Hops
	m.start(env, isSource, rounds)
	return m
}

// NewSparseExploreMachine builds the sparse form of the same exploration:
// same messages and rounds, its result in Heard.
func NewSparseExploreMachine(env *sim.Env, isSource bool, rounds int) *ExploreMachine {
	m := &ExploreMachine{sparse: true}
	m.start(env, isSource, rounds)
	return m
}

func (m *ExploreMachine) start(env *sim.Env, isSource bool, rounds int) {
	if isSource {
		s := m.slotOf(env.ID())
		m.dist[s], m.hop[s] = 0, 0
		m.bufs[0] = append(m.bufs[0], distUpdate{Source: env.ID(), Dist: 0})
	}
	m.loop = sim.Loop{Rounds: rounds, Send: m.send, Recv: m.recv, NextSend: sim.Reactive}
}

// slotOf returns source u's slot.
func (m *ExploreMachine) slotOf(u int) int {
	if m.sparse {
		return m.open(u)
	}
	return u
}

// open is the sparse form's slotOf: u's slot, opened unheard (graph.Inf,
// hop -1, as the dense vectors start) on first arrival.
func (m *ExploreMachine) open(u int) int {
	s, ok := m.slot.Get(uint64(u))
	if !ok {
		s = int32(len(m.ids))
		m.slot.Put(uint64(u), s)
		m.ids = append(m.ids, int32(u))
		m.dist = append(m.dist, graph.Inf)
		m.hop = append(m.hop, -1)
	}
	return int(s)
}

// Step implements sim.StepProgram. When the exploration ends, the sparse
// form turns its slots into Heard, sorted by ID.
func (m *ExploreMachine) Step(env *sim.Env) bool {
	if !m.loop.Step(env) {
		return false
	}
	if m.sparse {
		m.Heard = make([]Heard, len(m.ids))
		for s, u := range m.ids {
			m.Heard[s] = Heard{Dist: m.dist[s], ID: u, Hops: m.hop[s]}
		}
		slices.SortFunc(m.Heard, func(a, b Heard) int { return cmp.Compare(a.ID, b.ID) })
		m.dist, m.hop, m.ids, m.slot = nil, nil, nil, flatmap.Map[int32]{}
	}
	return true
}

func (m *ExploreMachine) send(env *sim.Env, i int) {
	if len(m.bufs[i&1]) > 0 {
		env.BroadcastLocal(&m.bufs[i&1])
	}
}

func (m *ExploreMachine) recv(env *sim.Env, in sim.Inbox, i int) {
	// Rebuild the buffer the NEXT send will broadcast; the one sent last
	// round is still being read by neighbors this round (see bufs).
	next := m.bufs[(i+1)&1][:0]
	// The wave is synchronous: an update staged in round j is sent in round
	// j+1, so every update received in round i travelled exactly i+1 hops,
	// and a source's first arrival is at its BFS layer.
	hop := int32(i + 1)
	for _, lm := range in.Local {
		ups, ok := lm.Payload.(*distUpdates)
		if !ok {
			continue
		}
		w, _ := env.Graph().Weight(env.ID(), lm.From)
		for _, up := range *ups {
			nd := up.Dist + w
			if s := m.slotOf(up.Source); nd < m.dist[s] {
				m.dist[s] = nd
				if m.hop[s] < 0 {
					m.hop[s] = hop
				}
				next = append(next, distUpdate{Source: up.Source, Dist: nd})
			}
		}
	}
	// A source improved more than once this round staged one update per
	// improvement, each strictly lighter than the one before: forward the
	// lightest, which is the estimate kept.
	slices.SortFunc(next, func(a, b distUpdate) int {
		if c := cmp.Compare(a.Source, b.Source); c != 0 {
			return c
		}
		return cmp.Compare(a.Dist, b.Dist)
	})
	next = slices.CompactFunc(next, func(a, b distUpdate) bool { return a.Source == b.Source })
	m.bufs[(i+1)&1] = next
}

// distUpdate is one relaxation of the wave. The hop count the paper's
// message carries is implicit in the round it arrives in (see recv), so the
// record holds only the source and the distance.
type distUpdate struct {
	Source int
	Dist   int64
}

// distUpdates is the local-mode payload of the Bellman-Ford wave: a batch
// of distance updates.
type distUpdates []distUpdate

// PayloadWords implements sim.WordSized: each update is charged as the
// paper's message, a source ID, a distance, and a hop count.
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
