// Package flood is the one flood the paper's protocols keep repeating:
// "flood inside the cluster / to radius h, forward on first arrival". Every
// origin injects one record at its own node; a node that hears an origin for
// the first time keeps the record and forwards it in the next round, and
// hears it from then on for nothing. Algorithm 1's member and W floods
// (package helpers), Algorithm 3's helper announcements and token spreading
// and Algorithm 4's final collection (package routing), and Theorem 1.1's
// label-vector flood (package skeleton) are instantiations: a payload type, a
// word charge per record, and what to do with a first arrival.
//
// Origins are node IDs, so first-arrival dedup is one bit per node of the
// network in a dense bitset — no hashing, no probing, cleared (not
// reallocated) when the state is started again. That is n/8 bytes per node
// and live flood: 2 KB at routing's n = 2^14 limit (Label.pack), where a
// session keeps three floods' state per node. What a flood learned lives in
// the instantiation's own directory, written from First and never probed for
// duplicates.
//
// # Memory discipline
//
// The delta a node forwards rotates through two buffers: the one broadcast,
// by pointer, at loop iteration i is read by the neighbors during iteration i
// and rewritten no earlier than iteration i+2 — by then every reader has
// passed the barrier of i+1, the same ownership window as the engine's
// double-buffered inboxes. Start continues the rotation where the previous
// flood left it, so a State may be started again in the very round segment
// its last flood finished in, while the neighbors still read that flood's
// last delta. A pointer payload is staged without
// boxing, so once both buffers have seen their peak occupancy a flood round
// allocates nothing; a State that outlives its flood (routing keeps its
// three in the Session) is warm from the first round of the next one.
// Record payloads (slices, typically) are shared by every node that hears
// them and must never be mutated.
package flood

import (
	"math/bits"

	"repro/internal/sim"
)

// Rec is one origin's record.
type Rec[P any] struct {
	Origin int
	Val    P
}

// delta is the local-mode payload of a flood: the records a node heard for
// the first time in the previous round. A node only ever forwards records of
// its own scope, so the scope is carried once per delta and a receiver of
// another scope skips the whole delta with one compare; the word charge is
// accumulated as records are appended, so PayloadWords is O(1).
type delta[P any] struct {
	scope int
	words int64
	recs  []Rec[P]
}

// PayloadWords implements sim.WordSized.
func (d *delta[P]) PayloadWords() int64 { return d.words }

// State is one node's side of a flood: the dedup bitset, the rotated delta
// buffers and the loop. The zero value is ready for Start; a State may be
// started again once its flood has finished, and then reuses its memory.
type State[P any] struct {
	scope int
	words func(P) int64
	first func(origin int, val P)
	seen  []uint64
	bufs  [2]delta[P]
	base  int // iteration i broadcasts bufs[(base+i)&1]
	loop  sim.Loop
}

// Start arms the flood: `rounds` rounds of first-arrival forwarding among the
// nodes that pass the same scope (a cluster's ruler; any constant for a
// flood bounded by its radius only). Every node must start it in the same
// round with the same round count. words is the charge of one record in
// O(log n)-bit words, as if it travelled alone; first, if non-nil, is called
// exactly once per origin this node hears (its own included), in the round
// it hears it. Inject this node's own record, if it has one, before the
// first Step.
func (s *State[P]) Start(env *sim.Env, scope, rounds int, words func(P) int64, first func(origin int, val P)) {
	s.scope, s.words, s.first = scope, words, first
	if nw := (env.N() + 63) / 64; len(s.seen) != nw {
		s.seen = make([]uint64, nw)
	} else {
		clear(s.seen)
	}
	s.base += s.loop.Rounds // the buffer the last iteration did not send
	s.reset(s.buf(0))
	s.loop = sim.Loop{Rounds: rounds, NextSend: sim.Reactive, Send: s.send, Recv: s.recv}
}

// Inject enters this node's own record into the flood; it goes out with the
// first round.
func (s *State[P]) Inject(origin int, val P) { s.accept(s.buf(0), Rec[P]{origin, val}) }

// Step implements sim.StepProgram.
func (s *State[P]) Step(env *sim.Env) bool { return s.loop.Step(env) }

// AppendOrigins appends the origins heard so far to dst in ascending order.
func (s *State[P]) AppendOrigins(dst []int) []int {
	for w, word := range s.seen {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// OriginsAre reports whether the origins heard so far are exactly ids, an
// ascending list of distinct node IDs — that is, whether AppendOrigins would
// return ids.
func (s *State[P]) OriginsAre(ids []int) bool {
	heard := 0
	for _, word := range s.seen {
		heard += bits.OnesCount64(word)
	}
	if heard != len(ids) {
		return false
	}
	for _, id := range ids {
		if id < 0 || id>>6 >= len(s.seen) || s.seen[id>>6]&(1<<(id&63)) == 0 {
			return false
		}
	}
	return true
}

func (s *State[P]) buf(i int) *delta[P] { return &s.bufs[(s.base+i)&1] }

func (s *State[P]) reset(d *delta[P]) { d.scope, d.words, d.recs = s.scope, 0, d.recs[:0] }

// accept marks a record's origin heard and stages the record into next; the
// caller has checked that this is its first arrival.
func (s *State[P]) accept(next *delta[P], r Rec[P]) {
	s.seen[r.Origin>>6] |= 1 << (r.Origin & 63)
	next.recs = append(next.recs, r)
	next.words += s.words(r.Val)
	if s.first != nil {
		s.first(r.Origin, r.Val)
	}
}

func (s *State[P]) send(env *sim.Env, i int) {
	if d := s.buf(i); len(d.recs) > 0 {
		env.BroadcastLocal(d)
	}
}

func (s *State[P]) recv(env *sim.Env, in sim.Inbox, i int) {
	// Rebuild the delta the NEXT send broadcasts; the one sent last round is
	// still being read by the neighbors this round.
	next := s.buf(i + 1)
	s.reset(next)
	for _, lm := range in.Local {
		d, ok := lm.Payload.(*delta[P])
		if !ok || d.scope != s.scope {
			continue
		}
		for i := range d.recs {
			if o := d.recs[i].Origin; s.seen[o>>6]&(1<<(o&63)) == 0 {
				s.accept(next, d.recs[i])
			}
		}
	}
}
