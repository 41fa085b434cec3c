// Package routing implements the token routing protocol of paper §2
// (Algorithms 2-4, Theorem 2.2): given sender nodes S and receiver nodes R,
// where each sender holds at most kS tokens, each receiver expects at most
// kR tokens and knows their labels, deliver every token to its receiver in
// O~(K/n + sqrt(kS) + sqrt(kR)) rounds, K = |S|·kS + |R|·kR.
//
// The protocol (§2.2):
//
//  1. Compute helper families {H_s} and {H'_r} with Algorithm 1
//     (package helpers), µ_S = min(sqrt(kS), 1/p_S), µ_R analogous.
//  2. Routing-Preparation (Algorithm 3): cluster-local flooding lets every
//     sender/receiver learn its helper set, after which tokens
//     (resp. expected labels) are spread balanced over the helpers.
//  3. Routing-Scheme (Algorithm 4): sender-helpers push tokens to
//     pseudo-random intermediate nodes determined by a shared k-wise
//     independent hash of the token label (package bitrand, broadcast as an
//     O(log^2 n)-bit seed per Lemma 2.3); receiver-helpers then request
//     their assigned labels from the same intermediates, which answer.
//  4. Receivers collect their tokens from their helpers by cluster-local
//     flooding.
//
// Deviations from the paper, all constant-factor and documented in
// DESIGN.md: phase lengths that the paper states as w.h.p. bounds are
// computed exactly with O(log n)-round global max-aggregations (Lemma B.2),
// which keeps every run correct (never truncated) while preserving the
// asymptotic round complexity.
package routing

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitrand"
	"repro/internal/flatmap"
	"repro/internal/helpers"
	"repro/internal/ncc"
	"repro/internal/sim"
)

// Message kinds.
const (
	kindToken   sim.Kind = 0x7d00 + iota // sender-helper -> intermediate
	kindRequest                          // receiver-helper -> intermediate
	kindAnswer                           // intermediate -> receiver-helper
)

// Label identifies one token: sender, receiver, and an index i
// distinguishing multiple tokens between the same pair (paper §2.2).
type Label struct {
	S, R int
	I    int64
}

// Token is a label plus its O(log n)-bit payload.
type Token struct {
	Label
	Value int64
}

// pack encodes a label as a field element for hashing and as the exact key
// of the intermediate token store, staying below the Mersenne prime
// 2^61-1. Injectivity requires IDs < 2^14 (checked by NewSession) and
// I < 2^30 (checked here; clique.Slot caps tags at 2^29, so the CLIQUE
// simulation's I = 2·tag+1 always fits). Out-of-range indices panic,
// surfacing as a run error via sim.Run, rather than silently aliasing.
func (l Label) pack() uint64 {
	if uint64(l.I) >= 1<<30 {
		panic(fmt.Errorf("routing: token index %d exceeds the 2^30 label-key limit", l.I))
	}
	return uint64(l.S)<<44 | uint64(l.R)<<30 | uint64(l.I)
}

// Spec is one node's view of a token routing instance. KS, KR, PS and PR
// must be identical at every node (globally known parameters); Send/Expect
// are the node's own inputs.
type Spec struct {
	// Send holds the tokens this node must send (empty unless a sender).
	Send []Token
	// Expect holds the labels this node must receive (empty unless a
	// receiver). Receivers know their labels per the problem statement.
	Expect []Label
	// InS / InR mark membership in the sender and receiver sets.
	InS, InR bool
	// KS and KR are global upper bounds on tokens per sender / receiver.
	KS, KR int
	// PS and PR are the sampling probabilities of S and R (Theorem 2.2's
	// p_S = n^-eps, p_R = n^-delta); they determine µ_S and µ_R.
	PS, PR float64
}

// Params tunes constants; the zero value is ready to use.
type Params struct {
	// Helpers configures Algorithm 1.
	Helpers helpers.Params
	// MuS / MuR override the derived µ values when positive.
	MuS, MuR int
	// HashKFactor scales the independence parameter k = HashKFactor*logN
	// of the intermediate-choosing hash (Lemma D.2 wants Θ(log n)).
	// Zero means 3.
	HashKFactor int
	// Cache, if non-nil, reuses the token-independent session state across
	// constructions with matching parameters and memberships, paying one
	// 2·ceil(log2 n)-round collective agreement instead of the full helper
	// family / hash-broadcast setup on a hit. See SessionCache.
	Cache *SessionCache
}

func (p Params) withDefaults() Params {
	if p.HashKFactor <= 0 {
		p.HashKFactor = 3
	}
	return p
}

// derivedMus resolves the helper-family sizes µ_S and µ_R from the
// instance parameters, honoring the overrides (shared by every session
// construction path, goroutine and machine, cached and not).
func derivedMus(p Params, kS, kR int, pS, pR float64) (muS, muR int) {
	muS = p.MuS
	if muS <= 0 {
		muS = mu(kS, pS)
	}
	muR = p.MuR
	if muR <= 0 {
		muR = mu(kR, pR)
	}
	return muS, muR
}

// mu computes floor(min(sqrt(k), 1/p)), clamped to >= 1 (Algorithm 2).
func mu(k int, prob float64) int {
	m := math.Sqrt(float64(k))
	if prob > 0 {
		if inv := 1 / prob; inv < m {
			m = inv
		}
	}
	v := int(m)
	if v < 1 {
		v = 1
	}
	return v
}

// helperAnnounce floods helper-set membership inside clusters so that every
// sender (and every helper of it) learns the full, identically-ordered
// helper set.
type helperAnnounce struct {
	Ruler  int
	W      int
	Helper int
}

// tokenBatch carries one owner's complete item batch (its tokens, or its
// expected labels with Value ignored) through its cluster during
// Routing-Preparation. An owner's items enter the flood together at the
// owner and spread by first-arrival forwarding, so they provably travel in
// lockstep; flooding them as one immutable shared batch is
// message-for-message identical to flooding the records individually, but
// needs one dedup check and one stored slice header per (node, owner)
// instead of per record. Items must never be mutated by a receiver.
type tokenBatch struct {
	Ruler int
	Owner int // the sender or receiver the items belong to
	Items []Token
}

// deliveredBatch carries one receiver-helper's answered tokens back
// through the cluster. Helpers hold disjoint label sets (labels are
// partitioned among a receiver's helpers by rank), and a helper injects
// its batch exactly once, so per-injector dedup is equivalent to
// per-label dedup.
type deliveredBatch struct {
	Ruler    int
	Injector int
	Items    []Token
}

// family bundles one helper family (Algorithm 1 output) with its
// cluster-local directory and the scratch of the current spread call: the
// per-owner batch directory and the flood's rotated delta buffers, reset
// (not reallocated) per Route.
type family struct {
	res        helpers.Result
	mu         int
	helperSets map[int][]int
	myOwners   []int // owners whose helper set contains this node, sorted
	items      flatmap.Map[[]Token]
	spreadBufs [2]tokenBatches
}

// Session holds the token-independent state of the protocol: the helper
// families, the cluster-local helper directories, and the shared hash
// function. Algorithm 8 (the CLIQUE simulation) runs one routing instance
// per simulated round over the same sender/receiver sets; reusing the
// session re-uses Algorithm 1's output, which the paper's cost accounting
// permits (helper sets depend only on S, R and µ, not on the tokens).
type Session struct {
	env    *sim.Env
	params Params
	famS   family
	famR   family
	hash   *bitrand.KWiseHash

	// inter parks tokens at this node in its intermediate role, keyed by
	// Label.pack() — injective under the package invariants (IDs < 2^14,
	// I < 2^30; see Label.pack and clique.Slot's tag contract). Reused
	// across Route calls; flatmap's shrink-on-reset policy keeps one giant
	// instance from pinning its peak capacity for the session lifetime.
	inter      flatmap.Map[int64]
	replyQueue []reply

	// Scratch of the final collection flood (see collectMachine), reset per
	// Route like inter: the injector dedup set, the rotated delta buffers,
	// and the tokens addressed to this node, gathered in arrival order.
	collectSeen flatmap.Set
	collectBufs [2]deliveredBatches
	collected   []Token
}

// reply is one queued intermediate-to-receiver-helper answer.
type reply struct {
	to  int
	tok Token
}

// NewSession computes helper families for the given sender/receiver
// membership and broadcasts the hash seed. Collective; all nodes must agree
// on kS, kR, pS, pR and params. The protocol's label keys (Label.pack)
// are injective only for node IDs below 2^14, so larger networks are
// rejected (the panic surfaces as a run error via sim.Run).
func NewSession(env *sim.Env, inS, inR bool, kS, kR int, pS, pR float64, params Params) *Session {
	p := params.withDefaults()
	n := env.N()
	if n > 1<<14 {
		panic(fmt.Errorf("routing: n = %d exceeds the 2^14 node-ID limit of the label keying (Label.pack)", n))
	}
	muS, muR := derivedMus(p, kS, kR, pS, pR)
	if p.Cache != nil {
		return p.Cache.session(env, inS, inR, keyOf(p, kS, kR, pS, pR, muS, muR), muS, muR, p)
	}
	return buildSession(env, inS, inR, muS, muR, p)
}

// buildSession is the uncached session construction: Algorithm 1 twice,
// the hash-seed broadcast, and the cluster-local helper announcements.
func buildSession(env *sim.Env, inS, inR bool, muS, muR int, p Params) *Session {
	n := env.N()
	logN := sim.Log2Ceil(n)

	// Helper families for senders and receivers (Algorithm 1 twice).
	resS := helpers.Compute(env, inS, muS, p.Helpers)
	resR := helpers.Compute(env, inR, muR, p.Helpers)

	// Shared hash function. Node 0 draws the seed; everyone gets it via a
	// binomial broadcast (Lemma 2.3: O(log^2 n) bits in O~(1) rounds).
	kHash := p.HashKFactor * logN
	var seedWords []int64
	if env.ID() == 0 {
		h := bitrand.NewKWiseHash(kHash, n, env.Rand())
		for _, c := range h.Seed() {
			seedWords = append(seedWords, int64(c))
		}
	}
	words := ncc.BroadcastWords(env, 0, seedWords, kHash)
	seed := make([]uint64, len(words))
	for i, w := range words {
		seed[i] = uint64(w)
	}

	// Algorithm 3, first loop: cluster-local flooding of helper
	// memberships, separately per family.
	s := &Session{
		env:    env,
		params: p,
		famS:   family{res: resS, mu: muS},
		famR:   family{res: resR, mu: muR},
		hash:   bitrand.FromSeed(seed, n),
	}
	s.famS.helperSets = announceHelpers(env, resS, muS)
	s.famR.helperSets = announceHelpers(env, resR, muR)
	s.famS.myOwners = helpersOf(env.ID(), s.famS.helperSets)
	s.famR.myOwners = helpersOf(env.ID(), s.famR.helperSets)
	return s
}

// Route runs the full token routing protocol collectively. Every node must
// call it in the same round with consistent global fields. It returns the
// tokens this node received (sorted), which is the node's Expect set with
// values filled in when the instance is consistent.
func Route(env *sim.Env, spec Spec, params Params) []Token {
	s := NewSession(env, spec.InS, spec.InR, spec.KS, spec.KR, spec.PS, spec.PR, params)
	return s.Route(spec.Send, spec.Expect)
}

// Pipeline returns the Theorem 2.2 protocol as a sim.Pipeline: specs[v] is
// node v's view of the instance, and the per-node result is the node's
// received tokens. The machine form is NewRouteProgram, so the pipeline is
// step-native on every engine.
func Pipeline(specs []Spec, params Params) sim.Pipeline[[]Token] {
	return sim.Pipeline[[]Token]{
		Run: func(env *sim.Env) []Token {
			return Route(env, specs[env.ID()], params)
		},
		Machine: func(env *sim.Env, done func([]Token)) sim.StepProgram {
			return NewRouteProgram(env, specs[env.ID()], params, done)
		},
	}
}

// Route runs one routing instance over the session's helper families:
// Algorithm 3's token spreading followed by Algorithm 4's hash-routed
// forwarding and the final cluster-local collection.
func (s *Session) Route(send []Token, expect []Label) []Token {
	env := s.env
	budget := env.GlobalCap()
	hash := s.hash

	// Algorithm 3, second loop: flood tokens and expected labels to the
	// clusters; helpers pick their balanced share by rank.
	sendTokens := canonicalTokens(send)
	myTokenJobs := s.famS.spread(env, sendTokens)
	expectTokens := make([]Token, len(expect))
	for i, l := range expect {
		expectTokens[i] = Token{Label: l}
	}
	expectTokens = canonicalTokens(expectTokens)
	myLabelJobs := s.famR.spread(env, expectTokens)

	// Algorithm 4: forward tokens to intermediates. The phase length is the
	// exact global maximum load, aggregated in O(log n) rounds.
	maxSend := int(ncc.Aggregate(env, int64(len(myTokenJobs)), ncc.AggMax))
	fwdRounds := ceilDiv(maxSend, budget)
	inter := &s.inter
	inter.Reset()
	ji := 0
	for round := 0; round < fwdRounds; round++ {
		for s := 0; s < budget && ji < len(myTokenJobs); s++ {
			t := myTokenJobs[ji]
			ji++
			env.SendGlobal(hash.Hash(t.pack()), kindToken, int64(t.S), int64(t.R), t.I, t.Value)
		}
		in := env.Step()
		for _, gm := range in.Global {
			if gm.Kind == kindToken {
				inter.Put(Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2}.pack(), gm.F3)
			}
		}
	}

	// Algorithm 4: receiver-helpers request their labels; the
	// intermediates answer, pacing replies at the cap. Drain time is
	// bounded by the max number of tokens parked at one intermediate.
	maxReq := int(ncc.Aggregate(env, int64(len(myLabelJobs)), ncc.AggMax))
	maxHeld := int(ncc.Aggregate(env, int64(inter.Len()), ncc.AggMax))
	reqRounds := ceilDiv(maxReq, budget) + ceilDiv(maxHeld, budget) + 1

	var gotTokens []Token
	replyQueue := s.replyQueue[:0]
	rq := 0 // head of the reply queue
	li := 0
	for round := 0; round < reqRounds; round++ {
		sent := 0
		for ; sent < budget && li < len(myLabelJobs); sent++ {
			l := myLabelJobs[li].Label
			li++
			env.SendGlobal(hash.Hash(l.pack()), kindRequest, int64(l.S), int64(l.R), l.I, 0)
		}
		// Remaining budget answers queued requests.
		for ; sent < budget && rq < len(replyQueue); sent++ {
			r := replyQueue[rq]
			rq++
			env.SendGlobal(r.to, kindAnswer, int64(r.tok.S), int64(r.tok.R), r.tok.I, r.tok.Value)
		}
		in := env.Step()
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
	}
	// Flush any replies still queued (possible when requests bunched up in
	// the final rounds): drain with a short aggregated extension.
	for {
		left := int(ncc.Aggregate(env, int64(len(replyQueue)-rq), ncc.AggMax))
		if left == 0 {
			break
		}
		for i := 0; i < ceilDiv(left, budget); i++ {
			sent := 0
			for ; sent < budget && rq < len(replyQueue); sent++ {
				r := replyQueue[rq]
				rq++
				env.SendGlobal(r.to, kindAnswer, int64(r.tok.S), int64(r.tok.R), r.tok.I, r.tok.Value)
			}
			in := env.Step()
			for _, gm := range in.Global {
				if gm.Kind == kindAnswer {
					gotTokens = append(gotTokens, Token{
						Label: Label{S: int(gm.F0), R: int(gm.F1), I: gm.F2},
						Value: gm.F3,
					})
				}
			}
		}
	}
	s.replyQueue = replyQueue

	// Receivers collect tokens from their helpers via cluster-local
	// flooding (final loop of Algorithm 4).
	collected := s.collect(env, gotTokens)
	return canonicalTokens(collected)
}

// announceHelpers floods (w, helper) pairs within clusters for 2β rounds so
// that all cluster members agree on each H_w. It returns the helper
// directory of this node's cluster (w -> sorted helper IDs).
func announceHelpers(env *sim.Env, res helpers.Result, mu int) map[int][]int {
	n := env.N()
	beta := 2 * mu * sim.Log2Ceil(n)
	var known flatmap.Set
	var delta helperAnnounces
	for _, w := range res.Helps {
		known.Add(announcePair(w, env.ID()))
		delta = append(delta, helperAnnounce{Ruler: res.Ruler, W: w, Helper: env.ID()})
	}
	for step := 0; step < 2*beta; step++ {
		if len(delta) > 0 {
			env.BroadcastLocal(delta)
		}
		in := env.Step()
		var next helperAnnounces
		for _, lm := range in.Local {
			anns, ok := lm.Payload.(helperAnnounces)
			if !ok {
				continue
			}
			for _, a := range anns {
				if a.Ruler == res.Ruler && known.Add(announcePair(a.W, a.Helper)) {
					next = append(next, a)
				}
			}
		}
		delta = next
	}
	return helperSetsOf(&known)
}

// announcePair packs one (w, helper) announcement, both IDs below 2^31, as
// the dedup key of the helper-membership flood.
func announcePair(w, helper int) uint64 { return uint64(w)<<32 | uint64(uint32(helper)) }

// helperSetsOf turns the flood's final pair set into the helper directory:
// the pairs sort by (w, helper), so every H_w is one ascending run.
func helperSetsOf(known *flatmap.Set) map[int][]int {
	pairs := known.AppendSortedKeys(make([]uint64, 0, known.Len()))
	sets := map[int][]int{}
	for lo := 0; lo < len(pairs); {
		w := pairs[lo] >> 32
		hi := lo + 1
		for hi < len(pairs) && pairs[hi]>>32 == w {
			hi++
		}
		hs := make([]int, hi-lo)
		for j := range hs {
			hs[j] = int(uint32(pairs[lo+j]))
		}
		sets[int(w)] = hs
		lo = hi
	}
	return sets
}

// spread floods each owner's item batch through its cluster for 2β rounds;
// every helper picks the share assigned to it by rank (item j goes to
// helper j mod |H_w|), which both the owner and all helpers compute
// identically from the sorted helper set. It returns the items THIS node
// is responsible for as a helper. myItems must be canonical (sorted,
// deduplicated) and is shared with the cluster, so the caller must not
// mutate it afterwards.
func (f *family) spread(env *sim.Env, myItems []Token) []Token {
	n := env.N()
	beta := 2 * f.mu * sim.Log2Ceil(n)
	me := env.ID()

	f.items.Reset()
	var delta tokenBatches
	if len(myItems) > 0 {
		f.items.Put(uint64(me), myItems)
		delta = append(delta, tokenBatch{Ruler: f.res.Ruler, Owner: me, Items: myItems})
	}
	for step := 0; step < 2*beta; step++ {
		if len(delta) > 0 {
			env.BroadcastLocal(delta)
		}
		in := env.Step()
		var next tokenBatches
		for _, lm := range in.Local {
			tbs, ok := lm.Payload.(tokenBatches)
			if !ok {
				continue
			}
			for _, tb := range tbs {
				if tb.Ruler != f.res.Ruler || f.items.Has(uint64(tb.Owner)) {
					continue
				}
				f.items.Put(uint64(tb.Owner), tb.Items)
				next = append(next, tb)
			}
		}
		delta = next
	}
	return f.myShare(me)
}

// myShare picks, after a spread flood, the items node me is responsible
// for: for every owner it helps, the items at its rank in the sorted helper
// set. Batches are canonical already (the owner floods its canonicalTokens
// output), so rank selection reads them directly.
func (f *family) myShare(me int) []Token {
	var mine []Token
	for _, w := range f.myOwners {
		hs := f.helperSets[w]
		rank := sort.SearchInts(hs, me)
		toks, _ := f.items.Get(uint64(w))
		for j := rank; j < len(toks); j += len(hs) {
			mine = append(mine, toks[j])
		}
	}
	return canonicalTokens(mine)
}

// helpersOf lists the owners w whose helper set contains node id, sorted.
func helpersOf(id int, helperSets map[int][]int) []int {
	var out []int
	for w, hs := range helperSets {
		i := sort.SearchInts(hs, id)
		if i < len(hs) && hs[i] == id {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// collect floods each helper's answered-token batch through the receiver
// clusters for 2β rounds; each receiver keeps the tokens addressed to it
// (final loop of Algorithm 4).
func (s *Session) collect(env *sim.Env, gotTokens []Token) []Token {
	n := env.N()
	beta := 2 * s.famR.mu * sim.Log2Ceil(n)
	me := env.ID()
	seen := map[int]bool{}
	var delta deliveredBatches
	var out []Token
	if len(gotTokens) > 0 {
		seen[me] = true
		delta = append(delta, deliveredBatch{Ruler: s.famR.res.Ruler, Injector: me, Items: gotTokens})
		for _, t := range gotTokens {
			if t.R == me {
				out = append(out, t)
			}
		}
	}
	for step := 0; step < 2*beta; step++ {
		if len(delta) > 0 {
			env.BroadcastLocal(delta)
		}
		in := env.Step()
		var next deliveredBatches
		for _, lm := range in.Local {
			dbs, ok := lm.Payload.(deliveredBatches)
			if !ok {
				continue
			}
			for _, db := range dbs {
				if db.Ruler != s.famR.res.Ruler {
					continue
				}
				if seen[db.Injector] {
					continue
				}
				seen[db.Injector] = true
				next = append(next, db)
				for _, t := range db.Items {
					if t.R == me {
						out = append(out, t)
					}
				}
			}
		}
		delta = next
	}
	return out
}

// canonicalTokens sorts tokens by (S, R, I) and drops duplicates.
func canonicalTokens(ts []Token) []Token {
	out := append([]Token(nil), ts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.I < b.I
	})
	dedup := out[:0]
	for i, t := range out {
		if i == 0 || t.Label != out[i-1].Label {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Validate checks an instance assembled from all nodes' specs for
// consistency: every expected label is sent exactly once, senders'
// per-node loads respect KS, receivers' loads respect KR, labels are
// distinct. Tests call it before routing.
func Validate(specs []Spec) error {
	sent := map[Label]bool{}
	for v, sp := range specs {
		if len(sp.Send) > 0 && !sp.InS {
			return fmt.Errorf("routing: node %d sends but is not in S", v)
		}
		if len(sp.Expect) > 0 && !sp.InR {
			return fmt.Errorf("routing: node %d expects but is not in R", v)
		}
		if len(sp.Send) > sp.KS {
			return fmt.Errorf("routing: node %d sends %d > KS=%d", v, len(sp.Send), sp.KS)
		}
		if len(sp.Expect) > sp.KR {
			return fmt.Errorf("routing: node %d expects %d > KR=%d", v, len(sp.Expect), sp.KR)
		}
		for _, t := range sp.Send {
			if t.S != v {
				return fmt.Errorf("routing: node %d sends token labeled with sender %d", v, t.S)
			}
			if sent[t.Label] {
				return fmt.Errorf("routing: duplicate token label %+v", t.Label)
			}
			sent[t.Label] = true
		}
	}
	for v, sp := range specs {
		for _, l := range sp.Expect {
			if l.R != v {
				return fmt.Errorf("routing: node %d expects label addressed to %d", v, l.R)
			}
			if !sent[l] {
				return fmt.Errorf("routing: label %+v expected but never sent", l)
			}
		}
	}
	return nil
}
