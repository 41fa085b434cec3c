package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ID returns this node's identifier in [0, N).
func (env *Env) ID() int { return env.id }

// N returns the total number of nodes.
func (env *Env) N() int { return env.eng.n }

// GlobalCap returns the number of global messages this node may send per
// round.
func (env *Env) GlobalCap() int { return env.eng.sendCap }

// Round returns the number of rounds this node has completed so far.
func (env *Env) Round() int { return env.round }

// Graph returns the local communication graph G. Machines may read
// arbitrary topology local to themselves; by LOCAL-model convention a node
// knows its incident edges (and only those) at start, which machines should
// respect by only inspecting their own neighborhood.
func (env *Env) Graph() *graph.Graph { return env.eng.g }

// Neighbors returns this node's adjacency list in G.
func (env *Env) Neighbors() []graph.Neighbor { return env.eng.g.Neighbors(env.id) }

// Rand returns this node's private deterministic random stream, the
// sub-stream (Config.Seed, "node", ID). It is seeded on the first call, in
// the node's own Step, so the seeding of n streams runs where the nodes do
// rather than on the engine's set-up path.
func (env *Env) Rand() *rand.Rand {
	if env.rng == nil {
		env.rng = env.eng.src.Named("node", env.id)
	}
	return env.rng
}

// SendLocal stages a local-mode message to a neighbor in G, charged one
// word in Metrics.LocalBits. Local messages may carry arbitrarily large
// payloads (LOCAL model). Sending to a non-neighbor is a model violation and
// aborts the run.
func (env *Env) SendLocal(to int, payload interface{}) {
	if !env.eng.g.HasEdge(env.id, to) {
		env.violate(fmt.Errorf("sim: node %d sent local message to non-neighbor %d", env.id, to))
	}
	env.stageLocal(localOut{to: int32(to), words: 1, payload: payload})
}

// stageLocal appends one local message to its destination shard's bucket.
func (env *Env) stageLocal(out localOut) {
	env.staged++
	out.from = int32(env.id)
	b := &env.out[env.eng.shardOf(int(out.to))]
	b.local = append(b.local, out)
}

// BroadcastLocal stages the payload to every neighbor in G, each copy
// charged one word.
func (env *Env) BroadcastLocal(payload interface{}) { env.BroadcastLocalWords(payload, 1) }

// BroadcastLocalWords is BroadcastLocal for a payload of the given size in
// O(log n)-bit words (the unit all of the paper's bandwidth statements use),
// which is what Metrics.LocalBits charges each copy. The sender states the
// size: the simulator never inspects a payload.
func (env *Env) BroadcastLocalWords(payload interface{}, words int64) {
	out := localOut{words: words, payload: payload}
	for _, nb := range env.Neighbors() {
		out.to = int32(nb.To)
		env.stageLocal(out)
	}
}

// SendGlobal stages a global-mode message. Src is stamped automatically.
// Exceeding the per-round cap or addressing an invalid node is a model
// violation and aborts the run.
func (env *Env) SendGlobal(dst int, kind Kind, f0, f1, f2, f3 int64) {
	if dst < 0 || dst >= env.eng.n {
		env.violate(fmt.Errorf("sim: node %d sent global message to invalid node %d", env.id, dst))
	}
	if env.globalSentThisRound >= env.eng.sendCap {
		env.violate(fmt.Errorf("sim: node %d exceeded global send cap %d in round %d",
			env.id, env.eng.sendCap, env.round))
	}
	env.globalSentThisRound++
	env.staged++
	b := &env.out[env.eng.shardOf(dst)]
	b.global = append(b.global, GlobalMsg{Src: env.id, Dst: dst, Kind: kind, F0: f0, F1: f1, F2: f2, F3: f3})
}

// Incoming returns the inbox delivered for the round currently being
// executed (empty in a node's first round). It is the read side of the
// StepProgram contract (see step.go); the slices are valid only during the
// Step call that reads them — the step loop refills them in the round's
// delivery, the legacy engine poisons them at the node's next barrier.
func (env *Env) Incoming() Inbox { return env.curInbox }

// SleepUntil declares, from inside a StepProgram's Step call, that the
// machine has nothing to do before the given round (in Round's numbering)
// unless a message arrives for the node first: the step engine then skips
// the node in its round loop until that round or the first round whose
// inbox is non-empty, whichever comes first, and fast-forwards over rounds
// in which every unfinished node sleeps (see "Sleeping nodes" in step.go);
// a sleeper wakes to an empty inbox. Only the declaration made by the
// node's latest Step call counts. The legacy engine ignores it and keeps
// calling the machine every round — so a machine must behave identically
// whether or not the calls it declared unnecessary happen. Machines built
// from Loop never call this directly; Loop.NextSend does.
func (env *Env) SleepUntil(round int) { env.wake = round }

// SharedOnce returns a run-scoped pooled object: the i-th call with a given
// prefix (counted per node) resolves to the same object at every node, with
// fn evaluated exactly once across the whole run. fn runs under a global lock
// and must not touch node-local state; nodes must call SharedOnce for a given
// prefix in the same collective order.
//
// The run has two sharing primitives because there are two needs. Agreed
// (below) shares an immutable value that every node could have built alone
// from knowledge the protocol made equal, behind a check of the caller's whole
// input; a node whose input differs gets its own. SharedOnce is for state that
// must be one mutable object for the instance's nodes — there is no input to
// compare, the nodes contribute to it — and it is unchecked, so the pooling
// must not let a node see what it has not been told. Its callers, and what
// keeps each of them honest:
//
//   - the pooled tables of a collective instance, ncc's token table (one per
//     DisseminateMachine / PipelinedBroadcastMachine run) and package flood's
//     value tables (a pair per flood role, which every flood's instantiation
//     uses — routing's announce, spread and collect floods and the
//     dissemination's Phase 3 among them; the last has empty slots):
//     entries written under the table's own lock or into the writer's own
//     slot, never changed while a reader may look (a flood slot is rewritten
//     two restarts later), and read by a node only at the indices set in its
//     own bitset — which it sets on presenting the full entry or on a message
//     from a neighbour that holds it. The i-th-call rule is what gives two
//     instances of one run two tables;
//   - the declared-cost CLIQUE oracles (kssp.alg, which Algorithm 9 shares,
//     and experiments' e4.alg): one algorithm object whose per-node handles pool their inputs,
//     the cost being declared rather than simulated;
//   - warm.Store's per-run entry, which every node stores its own slot into;
//   - hybridapsp's flags for the label vectors of one APSP run, "this vector
//     has no hole": an origin writes its own flag before its vector's flood
//     starts, and a node reads only the flags of vectors it heard — a fact
//     about a vector it holds in full, computed once instead of at every
//     node that holds it.
func (env *Env) SharedOnce(prefix string, fn func() interface{}) interface{} {
	if env.sharedSeq == nil {
		env.sharedSeq = map[string]int{}
	}
	key := sharedKey{prefix, env.sharedSeq[prefix]}
	env.sharedSeq[prefix]++
	e := env.eng
	e.sharedMu.Lock()
	defer e.sharedMu.Unlock()
	if e.shared == nil {
		e.shared = map[sharedKey]interface{}{}
	}
	if v, ok := e.shared[key]; ok {
		return v
	}
	v := fn()
	e.shared[key] = v
	return v
}

// Scratch returns this node's scratch slot: one value per node that lives as
// long as the run, for node state that outlives every machine using it.
// Package flood keeps there the pair of delta buffers all of a node's floods
// share — the node-ID floods and the dissemination's token-index flood
// alike — and is the slot's only user.
func (env *Env) Scratch() *any { return &env.scratch }

// sharedKey names a SharedOnce object: the idx-th call with prefix.
type sharedKey struct {
	prefix string
	idx    int
}

// Agreed returns a value that this node derives locally from knowledge the
// protocol has made identical at many nodes — a disseminated token list, the
// member list of a cluster — built once for all the nodes that hold the same
// knowledge instead of once per node. Local computation is free in HYBRID;
// this keeps the simulator from paying for it n times.
//
// The run keeps one slot per key, holding the value built last. same must
// compare the caller's complete input with the input the held value was built
// from (which the value therefore carries, or determines) — never a digest of
// it, never "same key, same value": if it accepts, the caller gets the held
// value, otherwise build runs on the caller's own input and its result
// replaces the slot. A node whose knowledge differs (a w.h.p. miss, an
// inconsistent instance, a later session under the same key) thus gets
// exactly what it would have computed alone, and the program's outputs are
// those of the program with every call replaced by build(). The slot is read
// and written under the engine's lock, but same and build run outside it, so
// nodes stepped concurrently neither serialise nor wait: each may build once
// before the first result lands. Returned values are shared and must never
// be written to. key must be comparable; use an unexported type, as with
// context keys. State that must be one object, not merely equal, is
// SharedOnce's (see there).
func Agreed[T any](env *Env, key any, same func(T) bool, build func() T) T {
	e := env.eng
	e.sharedMu.Lock()
	held, ok := e.agreed[key].(T)
	e.sharedMu.Unlock()
	if ok && same(held) {
		return held
	}
	v := build()
	e.sharedMu.Lock()
	if e.agreed == nil {
		e.agreed = map[any]any{}
	}
	e.agreed[key] = v
	e.sharedMu.Unlock()
	return v
}

// violate reports a model violation and unwinds this node's Step call.
func (env *Env) violate(err error) {
	env.eng.fail(err)
	panic(errAbort)
}
