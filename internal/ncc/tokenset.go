package ncc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/flatmap"
	"repro/internal/sim"
)

// tokenTable is the pooled, append-only table of the tokens the nodes of one
// collective instance can come to know (one DisseminateMachine or
// PipelinedBroadcastMachine run; see tableOf). Lemma B.1 ends with every node
// knowing all k tokens; storing that knowledge as n private sets of triples is
// Θ(n·k) host memory for one fact, so the triples exist once, here, and a
// node's knowledge is a tokenSet — a bitset over the table's indices.
//
// An index is a host-side name, never model data: a node obtains one only by
// presenting the full triple it legitimately holds (intern) or from a
// neighbour's flood delta, where it stands for the three words the message is
// charged for. Entries are immutable once appended.
//
// The index from token to position is open addressing over toks: slots holds
// position+1 (0 is empty) at the first free slot from the token's hash on,
// and is kept at most half full. A map keyed by the 24-byte token hashed it
// through the runtime's generic path, which was most of lookup's cost.
type tokenTable struct {
	mu    sync.Mutex
	toks  []Token
	slots []int32 // power-of-two length
}

// tableOf returns the token table of the collective instance this node is
// constructing: the i-th instance of the run resolves to one table at every
// node (sim.Env.SharedOnce), so two disseminations of one run never share
// indices.
func tableOf(env *sim.Env) *tokenTable {
	return env.SharedOnce("ncc.tokenTable", func() interface{} {
		return &tokenTable{}
	}).(*tokenTable)
}

// intern returns t's index, appending t if no node presented it before. It
// is for construction, where nodes present their own tokens concurrently.
func (tab *tokenTable) intern(t Token) int32 {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if i, ok := tab.find(t); ok {
		return i
	}
	if 2*(len(tab.toks)+1) > len(tab.slots) {
		tab.grow()
	}
	i := int32(len(tab.toks))
	tab.toks = append(tab.toks, t)
	tab.place(t, i)
	return i
}

// lookup returns the index of t, which a node presented (intern) in an
// earlier round than this one: the instance's nodes intern only while they
// construct it, all in one round, and the round barrier orders those writes
// before every later read, so lookup takes no lock. It panics on a token no
// node presented.
func (tab *tokenTable) lookup(t Token) int32 {
	i, ok := tab.find(t)
	if !ok {
		panic(fmt.Errorf("ncc: token %+v was never presented to its table", t))
	}
	return i
}

// find probes for t from its hash slot to the first empty one.
func (tab *tokenTable) find(t Token) (int32, bool) {
	if len(tab.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(tab.slots) - 1)
	for h := hashToken(t); ; h++ {
		p := tab.slots[h&mask]
		if p == 0 {
			return 0, false
		}
		if tab.toks[p-1] == t {
			return p - 1, true
		}
	}
}

// place stores index i of t, which is not in the index, in its first free
// slot.
func (tab *tokenTable) place(t Token, i int32) {
	mask := uint64(len(tab.slots) - 1)
	h := hashToken(t)
	for tab.slots[h&mask] != 0 {
		h++
	}
	tab.slots[h&mask] = i + 1
}

// grow doubles the slots (16 at first) and places every token again.
func (tab *tokenTable) grow() {
	tab.slots = make([]int32, max(16, 2*len(tab.slots)))
	for i, t := range tab.toks {
		tab.place(t, int32(i))
	}
}

// hashToken mixes a token's three words into a slot hash.
func hashToken(t Token) uint64 {
	return flatmap.Hash(flatmap.Hash(flatmap.Hash(uint64(t.A))^uint64(t.B)) ^ uint64(t.C))
}

// tokenSet is what one node knows: the set bits index its table.
type tokenSet struct {
	tab  *tokenTable
	bits []uint64
}

// add makes a token this node holds in full known to it.
func (s *tokenSet) add(t Token) { s.learn(s.tab.intern(t)) }

// addPresented is add for a token a node presented in an earlier round
// (lookup): every token received after the construction round.
func (s *tokenSet) addPresented(t Token) { s.learn(s.tab.lookup(t)) }

// learn marks the token of index i known and reports whether it was not.
func (s *tokenSet) learn(i int32) bool {
	w := int(i >> 6)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if s.bits[w]&(1<<(i&63)) != 0 {
		return false
	}
	s.bits[w] |= 1 << (i & 63)
	return true
}

// appendIndices appends the indices of the known tokens in ascending order.
func (s *tokenSet) appendIndices(dst []int32) []int32 {
	known := 0
	for _, word := range s.bits {
		known += bits.OnesCount64(word)
	}
	dst = slices.Grow(dst, known)
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// sameAs reports whether o is the same knowledge: the same table and the same
// bits, all of them.
func (s *tokenSet) sameAs(o *tokenSet) bool {
	a, b := s.bits, o.bits
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, word := range b[len(a):] {
		if word != 0 {
			return false
		}
	}
	return s.tab == o.tab && slices.Equal(a, b[:len(a)])
}

// sorted returns the known tokens in (A, B, C) order: the table read at this
// node's set bits and nowhere else.
func (s *tokenSet) sorted() []Token {
	idx := s.appendIndices(nil)
	out := make([]Token, len(idx))
	s.tab.mu.Lock()
	for j, i := range idx {
		out[j] = s.tab.toks[i]
	}
	s.tab.mu.Unlock()
	slices.SortFunc(out, func(a, b Token) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B), cmp.Compare(a.C, b.C))
	})
	return out
}
