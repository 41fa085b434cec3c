package routing

import (
	"fmt"

	"repro/internal/bitrand"
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
// cluster-local collection.
type RouteMachine struct {
	// Out is this node's received tokens (sorted); valid once Step returned
	// true.
	Out []Token

	prog sim.StepProgram
}

// NewRouteMachine builds the collective routing machine over s; every node
// must start it in the same round with consistent instance inputs. Out is
// the node's expect set with values filled in when the instance is
// consistent.
func NewRouteMachine(s *Session, send []Token, expect []Label) *RouteMachine {
	env := s.env
	budget := env.GlobalCap()
	hash := s.hash
	inter := &s.inter

	m := &RouteMachine{}
	var aggSend, aggReq, aggHeld *ncc.AggregateMachine
	var myTokenJobs, myLabelJobs []Token
	var gotTokens []Token
	var replyQueue []reply
	ji, li, rq := 0, 0, 0

	// answerSend and answerRecv are shared by the request loop and the
	// drain bursts: pace queued replies at the cap, collect answers.
	answerSend := func(env *sim.Env, sent int) int {
		for ; sent < budget && rq < len(replyQueue); sent++ {
			r := replyQueue[rq]
			rq++
			env.SendGlobal(r.to, kindAnswer, int64(r.tok.S), int64(r.tok.R), r.tok.I, r.tok.Value)
		}
		return sent
	}
	answerRecv := func(in sim.Inbox) {
		for _, gm := range in.Global {
			if gm.Kind == kindAnswer {
				gotTokens = append(gotTokens, Token{
					Label: Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2},
					Value: gm.F3,
				})
			}
		}
	}

	m.prog = sim.Sequence(
		// Algorithm 3, second loop: flood tokens and expected labels to the
		// clusters; helpers pick their balanced share by rank.
		func(env *sim.Env) sim.StepProgram {
			return startSpread(env, &s.famS, canonicalTokens(send))
		},
		func(env *sim.Env) sim.StepProgram {
			myTokenJobs = s.famS.myShare(env.ID())
			expectTokens := make([]Token, len(expect))
			for i, l := range expect {
				expectTokens[i] = Token{Label: l}
			}
			return startSpread(env, &s.famR, canonicalTokens(expectTokens))
		},
		// Algorithm 4: forward tokens to intermediates; the phase length is
		// the exact global maximum load.
		func(env *sim.Env) sim.StepProgram {
			myLabelJobs = s.famR.myShare(env.ID())
			aggSend = ncc.NewAggregateMachine(env, int64(len(myTokenJobs)), ncc.AggMax)
			return aggSend
		},
		func(env *sim.Env) sim.StepProgram {
			inter.Reset()
			return &sim.Loop{
				Rounds:   ceilDiv(int(aggSend.Out), budget),
				NextSend: sim.Pending(func() bool { return ji < len(myTokenJobs) }),
				Send: func(env *sim.Env, i int) {
					for c := 0; c < budget && ji < len(myTokenJobs); c++ {
						t := myTokenJobs[ji]
						ji++
						env.SendGlobal(hash.Hash(t.pack()), kindToken, int64(t.S), int64(t.R), t.I, t.Value)
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					for _, gm := range in.Global {
						if gm.Kind == kindToken {
							inter.Put(Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2}.pack(), gm.F3)
						}
					}
				},
			}
		},
		// Algorithm 4: receiver-helpers request their labels; intermediates
		// answer, pacing replies at the cap. Drain time is bounded by the
		// max number of tokens parked at one intermediate.
		func(env *sim.Env) sim.StepProgram {
			aggReq = ncc.NewAggregateMachine(env, int64(len(myLabelJobs)), ncc.AggMax)
			return aggReq
		},
		func(env *sim.Env) sim.StepProgram {
			aggHeld = ncc.NewAggregateMachine(env, int64(inter.Len()), ncc.AggMax)
			return aggHeld
		},
		func(env *sim.Env) sim.StepProgram {
			replyQueue = s.replyQueue[:0]
			return &sim.Loop{
				Rounds:   ceilDiv(int(aggReq.Out), budget) + ceilDiv(int(aggHeld.Out), budget) + 1,
				NextSend: sim.Pending(func() bool { return li < len(myLabelJobs) || rq < len(replyQueue) }),
				Send: func(env *sim.Env, i int) {
					sent := 0
					for ; sent < budget && li < len(myLabelJobs); sent++ {
						l := myLabelJobs[li].Label
						li++
						env.SendGlobal(hash.Hash(l.pack()), kindRequest, int64(l.S), int64(l.R), l.I, 0)
					}
					// Remaining budget answers queued requests.
					answerSend(env, sent)
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					for _, gm := range in.Global {
						switch gm.Kind {
						case kindRequest:
							l := Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2}
							if v, ok := inter.Get(l.pack()); ok {
								replyQueue = append(replyQueue, reply{to: gm.Src, tok: Token{Label: l, Value: v}})
							}
						case kindAnswer:
							gotTokens = append(gotTokens, Token{
								Label: Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2},
								Value: gm.F3,
							})
						}
					}
				},
			}
		},
		// Flush any replies still queued (possible when requests bunched up
		// in the final rounds): aggregate the remaining max and drain in
		// bursts until it reaches zero.
		func(env *sim.Env) sim.StepProgram {
			var agg *ncc.AggregateMachine
			return sim.Chain(func(env *sim.Env) sim.StepProgram {
				if agg != nil {
					left := int(agg.Out)
					agg = nil
					if left == 0 {
						return nil
					}
					return &sim.Loop{
						Rounds:   ceilDiv(left, budget),
						NextSend: sim.Pending(func() bool { return rq < len(replyQueue) }),
						Send:     func(env *sim.Env, i int) { answerSend(env, 0) },
						Recv:     func(env *sim.Env, in sim.Inbox, i int) { answerRecv(in) },
					}
				}
				agg = ncc.NewAggregateMachine(env, int64(len(replyQueue)-rq), ncc.AggMax)
				return agg
			})
		},
		// Receivers collect tokens from their helpers (final loop of
		// Algorithm 4).
		func(env *sim.Env) sim.StepProgram {
			s.replyQueue = replyQueue
			return startCollect(env, s, gotTokens, len(expect) > 0)
		},
		sim.Finish(func(env *sim.Env) { m.Out = canonicalTokens(s.collected) }),
	)
	return m
}

// Step implements sim.StepProgram.
func (m *RouteMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

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
// (which owns the rotated delta buffers, the dedup bitset and their memory
// discipline; see ARCHITECTURE.md, "Memory discipline"), 2β rounds each,
// β = 2µ⌈log n⌉, scoped to the node's cluster. spread's and collect's state
// lives in the Session and is reset, not reallocated, per RouteMachine, so
// the rounds of a flood allocate nothing once the session has routed an
// instance of the same shape.
func floodRounds(env *sim.Env, mu int) int { return 4 * mu * sim.Log2Ceil(env.N()) }

// announceMachine floods helper memberships within clusters so that all
// cluster members agree on each H_w. A helper's record is its complete
// membership — the owners w whose H_w it joined: its (w, helper)
// announcements enter the flood together at the helper and spread by
// first-arrival forwarding, so they provably travel in lockstep, and flooding
// them as one shared slice is message-for-message identical to flooding the
// pairs individually, charged as the (ruler, owner, helper) triples it stands
// for. What a node heard is not stored a second time: the records live once,
// in the flood's announceTable, the flood itself carries only each record's
// length — all a forwarder needs to charge it — and its first-arrival bitset
// says which records this node may read.
type announceMachine struct {
	// Sets is the helper directory of this node's cluster (w -> sorted
	// helper IDs); valid once Step returned true. The cluster's members
	// share one copy: read-only.
	Sets map[int][]int

	key   directoryKey
	tab   *announceTable
	flood flood.State[int] // helper -> how many owners it announced
}

// announceTable is the pooled record table of one announce flood (of all its
// clusters): owners[h] is the owner list helper h injected. Only h writes
// owners[h], once, before the flood's first round; a node reads it only at the
// helpers it heard, and hearing one takes a message sent after the write, so
// the round barrier orders the two and the table needs no lock. Every flood of
// a run has its own table (sim.Env.SharedOnce), so a record of one session is
// never read as another's.
type announceTable struct{ owners [][]int }

// directoryKey is the sim.Agreed slot of a cluster's helper directory: for a
// fixed graph the clustering is a function of µ, so (µ, ruler) names the
// cluster. The slot says nothing about which session's, or which family's,
// helpers were announced in it; the table the directory was read from does.
type directoryKey struct{ mu, ruler int }

// directory is a cluster's helper directory with what it was built from: the
// helpers heard, ascending, and the table their records were read from.
type directory struct {
	tab     *announceTable
	helpers []int
	sets    map[int][]int
}

func newAnnounceMachine(env *sim.Env, res helpers.Result, mu int) *announceMachine {
	n := env.N()
	a := &announceMachine{key: directoryKey{mu, res.Ruler}}
	a.tab = env.SharedOnce("routing.announceTable", func() interface{} {
		return &announceTable{owners: make([][]int, n)}
	}).(*announceTable)
	a.flood.Start(env, res.Ruler, floodRounds(env, mu),
		func(owners int) int64 { return 3 * int64(owners) }, nil)
	// Only members of the cluster announce in it.
	if len(res.Helps) > 0 {
		a.tab.owners[env.ID()] = res.Helps
		a.flood.Inject(env.ID(), len(res.Helps))
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
// two floods, hence two tables, and a table's records never change.
func (a *announceMachine) heardExactly(d *directory) bool {
	return d.tab == a.tab && a.flood.OriginsAre(d.helpers)
}

// buildDirectory inverts the announcements this node heard, reading the table
// at those helpers only. Helpers are visited in ascending ID order, so every
// H_w is built sorted; a counting pass first sizes each H_w exactly, because
// the directory lives as long as the session (and the session cache).
func (a *announceMachine) buildDirectory() *directory {
	heard := a.flood.AppendOrigins(nil)
	size := map[int]int{}
	for _, h := range heard {
		for _, w := range a.tab.owners[h] {
			size[w]++
		}
	}
	sets := make(map[int][]int, len(size))
	for w, k := range size {
		sets[w] = make([]int, 0, k)
	}
	for _, h := range heard {
		for _, w := range a.tab.owners[h] {
			sets[w] = append(sets[w], h)
		}
	}
	return &directory{tab: a.tab, helpers: heard, sets: sets}
}

// batchWords charges one owner's (or injector's) token batch: its ruler and
// origin plus four words per item (label and value).
func batchWords(items []Token) int64 { return 2 + 4*int64(len(items)) }

// startSpread floods each owner's item batch (its tokens, or its expected
// labels with Value ignored) through its cluster; afterwards f.myShare picks
// the items this node is responsible for as a helper. An owner's items enter
// the flood together and travel in lockstep, so one shared batch per owner is
// message-for-message identical to flooding the records individually.
// myItems must be canonical (sorted, deduplicated) and is shared with the
// cluster, so the caller must not mutate it afterwards.
func startSpread(env *sim.Env, f *family, myItems []Token) sim.StepProgram {
	f.items.Reset()
	f.spread.Start(env, f.res.Ruler, floodRounds(env, f.mu), batchWords,
		func(owner int, items []Token) { f.items.Put(uint64(owner), items) })
	if len(myItems) > 0 {
		f.spread.Inject(env.ID(), myItems)
	}
	return &f.spread
}

// startCollect floods each receiver-helper's answered-token batch through
// the receiver clusters (final loop of Algorithm 4). Helpers hold disjoint
// label sets and inject exactly once, so per-injector dedup is equivalent to
// per-label dedup. The tokens addressed to this node gather, in arrival
// order, in s.collected — at a node that expects any: a token is answered
// only because some node listed its label, and a consistent instance lists
// it at its receiver, so a node that expects nothing forwards batches without
// looking inside (the receiver-only rule; an inconsistent instance that
// addresses a token to such a node loses it there).
func startCollect(env *sim.Env, s *Session, gotTokens []Token, expecting bool) sim.StepProgram {
	me := env.ID()
	s.collected = s.collected[:0]
	var keep func(int, []Token)
	if expecting {
		keep = func(_ int, items []Token) {
			for _, t := range items {
				if t.R == me {
					s.collected = append(s.collected, t)
				}
			}
		}
	}
	s.collect.Start(env, s.famR.res.Ruler, floodRounds(env, s.famR.mu), batchWords, keep)
	if len(gotTokens) > 0 {
		s.collect.Inject(me, gotTokens)
	}
	return &s.collect
}
