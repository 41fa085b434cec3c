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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bitrand"
	"repro/internal/flatmap"
	"repro/internal/flood"
	"repro/internal/helpers"
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
// 2^61-1. Injectivity requires IDs < 2^14 (checked by NewSessionMachine) and
// I < 2^30 (checked here; clique.Slot caps tags at 2^29, so the CLIQUE
// simulation's I = 2·tag+1 always fits). Out-of-range indices panic,
// surfacing as a run error, rather than silently aliasing.
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
// instance parameters, honoring the overrides (shared by the cached and
// uncached session construction).
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

// family bundles one helper family (Algorithm 1 output) with its
// cluster-local directory and the scratch of the current spread call: the
// per-owner batch directory and the flood state, reset (not reallocated) per
// RouteMachine.
type family struct {
	res        helpers.Result
	mu         int
	helperSets map[int][]int
	myOwners   []int // owners whose helper set contains this node, sorted
	items      flatmap.Map[[]Token]
	spread     flood.State[[]Token]
}

// Session holds the token-independent state of the protocol, computed by a
// SessionMachine: the helper families, the cluster-local helper directories,
// and the shared hash function. Algorithm 8 (the CLIQUE simulation) runs one routing instance
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
	// across RouteMachines; flatmap's shrink-on-reset policy keeps one giant
	// instance from pinning its peak capacity for the session lifetime.
	inter      flatmap.Map[int64]
	replyQueue []reply

	// Scratch of the final collection flood (see startCollect), reset per
	// RouteMachine like inter: the flood state and the tokens addressed to
	// this node, gathered in arrival order.
	collect   flood.State[[]Token]
	collected []Token
}

// reply is one queued intermediate-to-receiver-helper answer.
type reply struct {
	to  int
	tok Token
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

// canonicalTokens sorts tokens by (S, R, I) and drops duplicates.
func canonicalTokens(ts []Token) []Token {
	out := append([]Token(nil), ts...)
	slices.SortFunc(out, func(a, b Token) int {
		if c := cmp.Compare(a.S, b.S); c != 0 {
			return c
		}
		if c := cmp.Compare(a.R, b.R); c != 0 {
			return c
		}
		return cmp.Compare(a.I, b.I)
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
