package routing

import (
	"fmt"
	"slices"

	"repro/internal/bitrand"
	"repro/internal/flatmap"
	"repro/internal/flood"
	"repro/internal/helpers"
	"repro/internal/ncc"
	"repro/internal/sim"
)

// The token routing protocol as collective machines (see sim.StepProgram):
// SessionMachine computes the token-independent Session, RouteMachine routes
// one instance over it, and NewRouteProgram composes the two.

// SessionMachine computes a routing Session without blocking: Algorithm 1
// twice, the hash-seed broadcast, and the cluster-local helper
// announcements. After it finishes, Out holds the session, ready for any
// number of RouteMachine runs.
type SessionMachine struct {
	// Out is the computed session; valid once Step returned true.
	Out *Session

	prog sim.StepProgram
}

// NewSessionMachine builds the collective session machine; all nodes must
// start it in the same round and agree on kS, kR, pS, pR and params. With
// params.Cache set it is the cached construction (warm.Guard): a hit binds
// in zero rounds, a miss is the full build. The protocol's label keys (Label.pack) are
// injective only for node IDs below 2^14, so larger networks are rejected
// (the panic surfaces as a run error).
func NewSessionMachine(env *sim.Env, inS, inR bool, kS, kR int, pS, pR float64, params Params) *SessionMachine {
	p := params.withDefaults()
	n := env.N()
	if n > 1<<14 {
		panic(fmt.Errorf("routing: n = %d exceeds the 2^14 node-ID limit of the label keying (Label.pack)", n))
	}
	muS, muR := derivedMus(p, kS, kR, pS, pR)
	m := &SessionMachine{}
	if p.Cache == nil {
		m.prog = newBuildSessionProg(env, m, inS, inR, muS, muR, p)
		return m
	}
	m.prog = p.Cache.Guard(keyOf(p, kS, kR, pS, pR, muS, muR),
		func(e *sessionEntry) bool { return e.stale(env.ID(), inS, inR) },
		func(env *sim.Env, e *sessionEntry) sim.StepProgram {
			m.Out = e.bind(env, muS, muR, p)
			return nil
		},
		func(env *sim.Env) sim.StepProgram { return newBuildSessionProg(env, m, inS, inR, muS, muR, p) },
		func(env *sim.Env, e *sessionEntry) { e.store(env.ID(), inS, inR, m.Out) },
	)
	return m
}

// newBuildSessionProg is the uncached session construction — Algorithm 1
// twice, the hash-seed broadcast, and the cluster-local helper announcements
// — writing the finished session to m.Out.
func newBuildSessionProg(env *sim.Env, m *SessionMachine, inS, inR bool, muS, muR int, p Params) sim.StepProgram {
	n := env.N()
	logN := sim.Log2Ceil(n)
	kHash := p.HashKFactor * logN

	s := &Session{env: env, params: p}
	var helpS, helpR *helpers.Machine
	var bw *ncc.BroadcastWordsMachine
	var annS, annR *announceMachine
	return sim.Sequence(
		// Helper families for senders and receivers (Algorithm 1 twice).
		func(env *sim.Env) sim.StepProgram {
			helpS = helpers.NewMachine(env, inS, muS, p.Helpers)
			return helpS
		},
		func(env *sim.Env) sim.StepProgram {
			helpR = helpers.NewMachine(env, inR, muR, p.Helpers)
			return helpR
		},
		func(env *sim.Env) sim.StepProgram {
			// Shared hash function. Node 0 draws the seed; everyone gets it
			// via a binomial broadcast (Lemma 2.3: O(log^2 n) bits in O~(1)
			// rounds).
			var seedWords []int64
			if env.ID() == 0 {
				h := bitrand.NewKWiseHash(kHash, n, env.Rand())
				for _, c := range h.Seed() {
					seedWords = append(seedWords, int64(c))
				}
			}
			bw = ncc.NewBroadcastWordsMachine(env, 0, seedWords, kHash)
			return bw
		},
		sim.Finish(func(env *sim.Env) {
			seed := make([]uint64, len(bw.Out))
			for i, w := range bw.Out {
				seed[i] = uint64(w)
			}
			s.famS = family{res: helpS.Res, mu: muS}
			s.famR = family{res: helpR.Res, mu: muR}
			s.hash = bitrand.FromSeed(seed, n)
		}),
		// Algorithm 3, first loop: cluster-local flooding of helper
		// memberships, separately per family.
		func(env *sim.Env) sim.StepProgram {
			annS = newAnnounceMachine(env, s.famS.res, muS)
			return annS
		},
		func(env *sim.Env) sim.StepProgram {
			s.famS.helperSets = annS.Sets
			annR = newAnnounceMachine(env, s.famR.res, muR)
			return annR
		},
		sim.Finish(func(env *sim.Env) {
			s.famR.helperSets = annR.Sets
			s.famS.myOwners = helpersOf(env.ID(), s.famS.helperSets)
			s.famR.myOwners = helpersOf(env.ID(), s.famR.helperSets)
			m.Out = s
		}),
	)
}

// Step implements sim.StepProgram.
func (m *SessionMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// RouteMachine runs one routing instance over a computed session:
// Algorithm 3's token spreading, Algorithm 4's hash-routed forwarding with
// the aggregated phase lengths, the reply drain, and the final
// cluster-local collection. A Session owns exactly one: NewRouteMachine
// re-arms it for the next instance, so a session routes one instance at a
// time, and the per-instance scratch — token batches, helper shares, the
// intermediate store, reply queue and gathered answers, the collect flood —
// is reset, not reallocated, from one instance to the next.
type RouteMachine struct {
	// Out is this node's received tokens (sorted); valid once Step returned
	// true. Every instance's Out is a fresh slice, which later instances
	// leave alone.
	Out []Token

	s      *Session
	me     int
	budget int // the per-round global send cap

	phase routePhase
	cur   sim.StepProgram // the running phase's machine

	// The phases' machines. The three loop templates are bound to this
	// machine once per session and copied, callbacks and all, into loop.
	agg                  ncc.AggregateMachine
	loop                 sim.Loop
	push, request, drain sim.Loop
	requests             int // the aggregated maximum of the label jobs

	// jobs is this node's helper share of the tokens to push, then of the
	// labels to request: each is read before the other is picked (from the
	// family's batch directory, which stays put until the next instance),
	// so one buffer holds both.
	jobs    []Token
	got     []Token // answers to this node's requests
	replies []reply // answers this node owes as an intermediate
	job, rq int     // cursors into jobs and replies

	// inter parks tokens at this node in its intermediate role, keyed by
	// Label.pack() — injective under the package invariants (IDs < 2^14,
	// I < 2^30; see Label.pack and clique.Slot's tag contract). flatmap's
	// shrink-on-reset policy keeps one giant instance from pinning its peak
	// capacity for the session lifetime.
	inter flatmap.Map[int64]

	// The final collection flood (see startCollect) and the tokens addressed
	// to this node, gathered in arrival order; keep is the flood's
	// first-arrival hook, bound once.
	collect   flood.State[[]Token]
	collected []Token
	keep      func(int, []Token)
}

// routePhase is the phase a RouteMachine is in; the phases run in the order
// declared, the drain repeating (aggregate, burst) until nothing is left.
type routePhase uint8

const (
	routeIdle         routePhase = iota // no instance armed
	routeArmed                          // armed, first Step to come
	routeSpreadTokens                   // Algorithm 3: send batches to the sender clusters
	routeSpreadLabels                   // Algorithm 3: expect batches to the receiver clusters
	routeAggPush                        // max tokens one sender-helper forwards
	routePush                           // Algorithm 4: tokens to intermediates
	routeAggRequests                    // max labels one receiver-helper requests
	routeAggHeld                        // max tokens parked at one intermediate
	routeRequest                        // Algorithm 4: requests and paced answers
	routeAggLeft                        // max answers still queued at one intermediate
	routeDrain                          // a burst answering them
	routeCollect                        // final loop of Algorithm 4
)

// NewRouteMachine arms s's routing machine for one instance and returns it;
// every node must start it in the same round with consistent instance
// inputs. Out is the node's expect set with values filled in when the
// instance is consistent. send and expect are copied: the caller may reuse
// them once NewRouteMachine returned. The session's previous instance must
// have finished; arming it while one is still routing panics (a run error).
func NewRouteMachine(s *Session, send []Token, expect []Label) *RouteMachine {
	m := &s.route
	if m.s == nil {
		m.bind(s)
	}
	if m.phase != routeIdle {
		panic(fmt.Errorf("routing: node %d's session armed for an instance while its previous one is still routing", m.me))
	}
	m.phase, m.Out = routeArmed, nil
	m.rq = 0
	m.got, m.replies = m.got[:0], m.replies[:0]
	// The batches this node injects into the two spreads, rewritten only
	// here (see startSpread for why).
	s.famS.batch = canonicalTokens(append(reuse(s.famS.batch, len(send)), send...))
	batch := reuse(s.famR.batch, len(expect))
	for _, l := range expect {
		batch = append(batch, Token{Label: l})
	}
	s.famR.batch = canonicalTokens(batch)
	return m
}

// bind ties m to its session, once: the callbacks of the loop templates and
// the collect flood's hook become method values here, so that no later
// instance allocates them again.
func (m *RouteMachine) bind(s *Session) {
	m.s, m.me, m.budget = s, s.env.ID(), s.env.GlobalCap()
	m.push = sim.Loop{Send: m.pushSend, Recv: m.pushRecv, NextSend: sim.Pending(m.pushing)}
	m.request = sim.Loop{Send: m.requestSend, Recv: m.requestRecv, NextSend: sim.Pending(m.requesting)}
	m.drain = sim.Loop{Send: m.drainSend, Recv: m.drainRecv, NextSend: sim.Pending(m.answering)}
	m.keep = m.keepMine
}

// Step implements sim.StepProgram: it steps the running phase and, in the
// round segment that phase finishes in, starts the next.
func (m *RouteMachine) Step(env *sim.Env) bool {
	for {
		if m.cur != nil {
			if !m.cur.Step(env) {
				return false
			}
			m.cur = nil
		}
		if m.cur = m.next(env); m.cur == nil {
			return true
		}
	}
}

// next ends the phase that just finished (the armed state included) and
// starts its successor, which it returns; nil once the instance is done.
func (m *RouteMachine) next(env *sim.Env) sim.StepProgram {
	s := m.s
	switch m.phase {
	case routeArmed:
		// Algorithm 3, second loop: flood tokens and expected labels to the
		// clusters; helpers pick their balanced share by rank.
		m.phase = routeSpreadTokens
		return startSpread(env, &s.famS)
	case routeSpreadTokens:
		m.phase = routeSpreadLabels
		return startSpread(env, &s.famR)
	case routeSpreadLabels:
		// Algorithm 4: forward tokens to intermediates; the phase length is
		// the exact global maximum load.
		m.jobs, m.job = s.famS.myShare(m.me, m.jobs), 0
		m.phase = routeAggPush
		m.agg.Start(env, int64(len(m.jobs)), ncc.AggMax)
		return &m.agg
	case routeAggPush:
		m.inter.Reset()
		m.phase = routePush
		return m.startLoop(&m.push, ceilDiv(int(m.agg.Out), m.budget))
	case routePush:
		// Algorithm 4: receiver-helpers request their labels; intermediates
		// answer, pacing replies at the cap. Drain time is bounded by the
		// max number of tokens parked at one intermediate.
		m.jobs, m.job = s.famR.myShare(m.me, m.jobs), 0
		m.phase = routeAggRequests
		m.agg.Start(env, int64(len(m.jobs)), ncc.AggMax)
		return &m.agg
	case routeAggRequests:
		m.requests = int(m.agg.Out)
		m.phase = routeAggHeld
		m.agg.Start(env, int64(m.inter.Len()), ncc.AggMax)
		return &m.agg
	case routeAggHeld:
		m.phase = routeRequest
		return m.startLoop(&m.request, ceilDiv(m.requests, m.budget)+ceilDiv(int(m.agg.Out), m.budget)+1)
	case routeRequest, routeDrain:
		// Flush any replies still queued (possible when requests bunched up
		// in the final rounds): aggregate the remaining max and drain in
		// bursts until it reaches zero.
		m.phase = routeAggLeft
		m.agg.Start(env, int64(len(m.replies)-m.rq), ncc.AggMax)
		return &m.agg
	case routeAggLeft:
		if left := int(m.agg.Out); left > 0 {
			m.phase = routeDrain
			return m.startLoop(&m.drain, ceilDiv(left, m.budget))
		}
		// Receivers collect tokens from their helpers (final loop of
		// Algorithm 4).
		m.phase = routeCollect
		return m.startCollect(env)
	case routeCollect:
		if out := canonicalTokens(m.collected); len(out) > 0 {
			m.Out = slices.Clone(out)
		}
		m.phase = routeIdle
		return nil
	}
	panic(fmt.Errorf("routing: node %d stepped a RouteMachine with no instance armed", m.me))
}

// startLoop arms loop as a copy of template running for rounds iterations.
func (m *RouteMachine) startLoop(template *sim.Loop, rounds int) *sim.Loop {
	m.loop = *template
	m.loop.Rounds = rounds
	return &m.loop
}

// The push loop: sender-helpers forward their share to the intermediates
// the shared hash picks, at the cap; intermediates park what arrives.
func (m *RouteMachine) pushing() bool { return m.job < len(m.jobs) }

func (m *RouteMachine) pushSend(env *sim.Env, _ int) {
	for c := 0; c < m.budget && m.job < len(m.jobs); c++ {
		t := m.jobs[m.job]
		m.job++
		env.SendGlobal(m.s.hash.Hash(t.pack()), kindToken, int64(t.S), int64(t.R), t.I, t.Value)
	}
}

func (m *RouteMachine) pushRecv(_ *sim.Env, in sim.Inbox, _ int) {
	for _, gm := range in.Global {
		if gm.Kind == kindToken {
			m.inter.Put(Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2}.pack(), gm.F3)
		}
	}
}

// The request loop: receiver-helpers request their share's labels from the
// intermediates, which queue answers; the budget a node's requests leave
// over answers queued requests.
func (m *RouteMachine) requesting() bool { return m.job < len(m.jobs) || m.answering() }

func (m *RouteMachine) requestSend(env *sim.Env, _ int) {
	sent := 0
	for ; sent < m.budget && m.job < len(m.jobs); sent++ {
		l := m.jobs[m.job].Label
		m.job++
		env.SendGlobal(m.s.hash.Hash(l.pack()), kindRequest, int64(l.S), int64(l.R), l.I, 0)
	}
	m.answer(env, sent)
}

func (m *RouteMachine) requestRecv(_ *sim.Env, in sim.Inbox, _ int) {
	for _, gm := range in.Global {
		switch gm.Kind {
		case kindRequest:
			l := Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2}
			if v, ok := m.inter.Get(l.pack()); ok {
				m.replies = append(m.replies, reply{to: gm.Src, tok: Token{Label: l, Value: v}})
			}
		case kindAnswer:
			m.gather(gm)
		}
	}
}

// The drain bursts answer what the request loop left queued.
func (m *RouteMachine) answering() bool { return m.rq < len(m.replies) }

func (m *RouteMachine) drainSend(env *sim.Env, _ int) { m.answer(env, 0) }

func (m *RouteMachine) drainRecv(_ *sim.Env, in sim.Inbox, _ int) {
	for _, gm := range in.Global {
		if gm.Kind == kindAnswer {
			m.gather(gm)
		}
	}
}

// answer paces queued replies at the cap, sent messages already counted.
func (m *RouteMachine) answer(env *sim.Env, sent int) {
	for ; sent < m.budget && m.rq < len(m.replies); sent++ {
		r := m.replies[m.rq]
		m.rq++
		env.SendGlobal(r.to, kindAnswer, int64(r.tok.S), int64(r.tok.R), r.tok.I, r.tok.Value)
	}
}

// gather keeps an answer to one of this node's requests.
func (m *RouteMachine) gather(gm sim.GlobalMsg) {
	m.got = append(m.got, Token{Label: Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2}, Value: gm.F3})
}

// NewRouteProgram runs the full token routing protocol (Theorem 2.2): session
// construction followed by one routing instance, handing the received
// tokens (sorted) to done. Every node must start it in the same round with
// consistent global fields in spec.
func NewRouteProgram(env *sim.Env, spec Spec, params Params, done func([]Token)) sim.StepProgram {
	var sm *SessionMachine
	var rm *RouteMachine
	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			sm = NewSessionMachine(env, spec.InS, spec.InR, spec.KS, spec.KR, spec.PS, spec.PR, params)
			return sm
		},
		func(env *sim.Env) sim.StepProgram {
			rm = NewRouteMachine(sm.Out, spec.Send, spec.Expect)
			return rm
		},
		sim.Finish(func(env *sim.Env) { done(rm.Out) }),
	)
}

// Pipeline returns the Theorem 2.2 protocol as a sim.Pipeline: specs[v] is
// node v's view of the instance, and the per-node result is the node's
// received tokens.
func Pipeline(specs []Spec, params Params) sim.Pipeline[[]Token] {
	return func(env *sim.Env, done func([]Token)) sim.StepProgram {
		return NewRouteProgram(env, specs[env.ID()], params, done)
	}
}

// The three cluster floods of this file are instantiations of flood.State
// (which owns the dedup bitset, uses the node's delta pair and states their
// memory discipline; see ARCHITECTURE.md, "Memory discipline"), 2β rounds each,
// β = 2µ⌈log n⌉, scoped to the node's cluster. spread's and collect's state
// lives in the Session (collect's in its one RouteMachine) and is reset, not
// reallocated, per instance, so — like every other round of an instance but
// its first and last — the rounds of a flood allocate nothing once the
// session has routed an instance of the same shape.
func floodRounds(env *sim.Env, mu int) int { return 4 * mu * sim.Log2Ceil(env.N()) }

// announceMachine floods helper memberships within clusters so that all
// cluster members agree on each H_w. A helper's record is its complete
// membership — the owners w whose H_w it joined: its (w, helper)
// announcements enter the flood together at the helper and spread by
// first-arrival forwarding, so they provably travel in lockstep, and flooding
// them as one shared slice is message-for-message identical to flooding the
// pairs individually, charged as the (ruler, owner, helper) triples it stands
// for. The records live once, in the flood's table, read at the bits heard.
type announceMachine struct {
	// Sets is the helper directory of this node's cluster (w -> sorted
	// helper IDs); valid once Step returned true. The cluster's members
	// share one copy: read-only.
	Sets map[int][]int

	key   directoryKey
	flood flood.State[[]int] // helper -> the owners it announced
}

// directoryKey is the sim.Agreed slot of a cluster's helper directory: for a
// fixed graph the clustering is a function of µ, so (µ, ruler) names the
// cluster. The slot says nothing about which session's, or which family's,
// helpers were announced in it; the table the directory was read from does.
type directoryKey struct{ mu, ruler int }

// directory is a cluster's helper directory with what it was built from: the
// helpers heard, ascending, and the flood table their records were read from.
type directory struct {
	table   any
	helpers []int
	sets    map[int][]int
}

func newAnnounceMachine(env *sim.Env, res helpers.Result, mu int) *announceMachine {
	a := &announceMachine{key: directoryKey{mu, res.Ruler}}
	a.flood.Start(env, env.N(), res.Ruler, floodRounds(env, mu),
		func(owners []int) int64 { return 3 * int64(len(owners)) }, nil)
	// Only members of the cluster announce in it.
	if len(res.Helps) > 0 {
		a.flood.Inject(env.ID(), res.Helps)
	}
	return a
}

// Step implements sim.StepProgram.
func (a *announceMachine) Step(env *sim.Env) bool {
	if !a.flood.Step(env) {
		return false
	}
	a.Sets = sim.Agreed(env, a.key, a.heardExactly, a.buildDirectory).sets
	return true
}

// heardExactly reports whether d was built from the announcements this node
// heard: the records of the same flood, and of exactly the same helpers. The
// helper set alone would not do — two sessions of one run can have the same
// helpers announce different owners in the same cluster — but they do so in
// two floods, hence two tables, and a flood's State is started only once.
func (a *announceMachine) heardExactly(d *directory) bool {
	return d.table == a.flood.Table() && a.flood.OriginsAre(d.helpers)
}

// buildDirectory inverts the announcements this node heard. Helpers are
// visited in ascending ID order, so every H_w is built sorted; a counting
// pass first sizes each H_w exactly, because the directory lives as long as
// the session (and the session cache).
func (a *announceMachine) buildDirectory() *directory {
	heard := a.flood.AppendOrigins(nil)
	size := map[int]int{}
	for _, h := range heard {
		owners, _ := a.flood.Heard(h)
		for _, w := range owners {
			size[w]++
		}
	}
	sets := make(map[int][]int, len(size))
	for w, k := range size {
		sets[w] = make([]int, 0, k)
	}
	for _, h := range heard {
		owners, _ := a.flood.Heard(h)
		for _, w := range owners {
			sets[w] = append(sets[w], h)
		}
	}
	return &directory{table: a.flood.Table(), helpers: heard, sets: sets}
}

// batchWords charges one owner's (or injector's) token batch: its ruler and
// origin plus four words per item (label and value).
func batchWords(items []Token) int64 { return 2 + 4*int64(len(items)) }

// startSpread floods each owner's item batch f.batch (its tokens, or its
// expected labels with Value ignored) through its cluster; afterwards
// f.myShare picks the items this node is responsible for as a helper. An
// owner's items enter the flood together and travel in lockstep, so one
// shared batch per owner is message-for-message identical to flooding the
// records individually. The batch is canonical (sorted, deduplicated).
//
// The spread and collect batches are session buffers that the cluster reads
// in place, through the flood's table, until the flood's last round segment.
// So a buffer is rewritten only by a later instance's phase that starts after
// it: the family batches when NewRouteMachine arms the next instance, the
// gathered answers in the next request loop (the collect flood that reads
// them may end in the very segment the next instance is armed in). That is
// also why a session routes one instance at a time.
func startSpread(env *sim.Env, f *family) sim.StepProgram {
	f.spread.Start(env, env.N(), f.res.Ruler, floodRounds(env, f.mu), batchWords, nil)
	if len(f.batch) > 0 {
		f.spread.Inject(env.ID(), f.batch)
	}
	return &f.spread
}

// startCollect floods each receiver-helper's answered-token batch through
// the receiver clusters (final loop of Algorithm 4). Helpers hold disjoint
// label sets and inject exactly once, so per-injector dedup is equivalent to
// per-label dedup. The tokens addressed to this node gather, in arrival
// order, in m.collected — at a node that expects any: a token is answered
// only because some node listed its label, and a consistent instance lists
// it at its receiver, so a node that expects nothing forwards batches without
// looking inside (the receiver-only rule; an inconsistent instance that
// addresses a token to such a node loses it there). The injected batch is
// m.got, which the next instance appends to in its request loop only (see
// startSpread).
func (m *RouteMachine) startCollect(env *sim.Env) sim.StepProgram {
	m.collected = m.collected[:0]
	var keep func(int, []Token)
	if len(m.s.famR.batch) > 0 { // this node expects tokens
		keep = m.keep
	}
	famR := &m.s.famR
	m.collect.Start(env, env.N(), famR.res.Ruler, floodRounds(env, famR.mu), batchWords, keep)
	if len(m.got) > 0 {
		m.collect.Inject(m.me, m.got)
	}
	return &m.collect
}

// keepMine is the collect flood's first-arrival hook at a node that expects
// tokens: it keeps the batch's tokens addressed to this node.
func (m *RouteMachine) keepMine(_ int, items []Token) {
	for _, t := range items {
		if t.R == m.me {
			m.collected = append(m.collected, t)
		}
	}
}
