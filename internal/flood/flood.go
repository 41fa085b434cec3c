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
// session keeps three floods' state per node. What a node learned is that
// bitset over the flood's value table, which Heard reads.
//
// # Memory discipline
//
// A record's value is stored once per flood, not once per node that hears
// it: every node's State of one flood role (the i-th State a node starts, in
// the collective order all nodes share) takes the same pair of n-slot value
// tables from sim.Env.SharedOnce, and a delta carries origin IDs, 4 bytes a
// record where a copied record took 16 to 32. Inject writes the origin's
// slot before the flood's first round; a node reads a slot only at an origin
// it heard, which takes a message sent after the write, so the round barrier
// orders the two. On kssp_mm_sparse_400 this took cmd/bench's alloc_mb from
// 54.8 to 30.9 MB and peak_rss_mb from 39.5 to 26.8 MB.
//
// The delta a node forwards rotates through two buffers: the one broadcast,
// by pointer, at loop iteration i is read by the neighbors during iteration i
// and rewritten no earlier than iteration i+2 — by then every reader has
// passed the barrier of i+1, the same ownership window as the engine's
// double-buffered inboxes. Start continues the rotation where the previous
// flood left it, so a State may be started again in the very round segment
// its last flood finished in, while the neighbors still read that flood's
// last delta. The value tables rotate in step: a Start after a flood that ran
// rounds switches tables, so it never overwrites a value the last flood's
// readers still look up. Once both buffers have seen their peak occupancy a
// flood round allocates nothing; a State that outlives its flood (routing
// keeps its three in the Session) is warm from the first round of the next
// one. Record payloads (slices, typically) are shared by every node that
// hears them and must never be mutated.
package flood

import (
	"math/bits"

	"repro/internal/sim"
)

// delta is the local-mode payload of a flood: the origins a node heard first
// in the previous round, of its scope, so a receiver of another scope skips
// the delta with one compare; the word charge grows as origins are appended.
type delta struct {
	scope   int
	words   int64
	origins []int32
}

// State is one node's side of a flood: the dedup bitset, the role's value
// tables, the rotated delta buffers and the loop. The zero value is ready for
// Start; a State may be started again once its flood has finished, and then
// reuses its memory and the loop callbacks its first Start bound to it — so a
// started State must not be copied.
type State[P any] struct {
	scope int
	words func(P) int64
	first func(origin int, val P)
	seen  []uint64
	tabs  *[2][]P // the role's value tables, shared by every node's State
	cur   int     // the current flood's table is tabs[cur]
	bufs  [2]delta
	base  int // iteration i broadcasts bufs[(base+i)&1]
	loop  sim.Loop
}

// Start arms the flood: `rounds` rounds of first-arrival forwarding among the
// nodes that pass the same scope (a cluster's ruler; any constant for a
// flood bounded by its radius only). Every node must start it in the same
// round with the same round count, and its States in the same order (a first
// Start names the role). words is the charge of one record in O(log n)-bit
// words, as if it travelled alone; first, if non-nil, is called exactly once
// per origin this node hears (its own included), in the round it hears it.
// Inject this node's own record, if it has one, before the first Step.
func (s *State[P]) Start(env *sim.Env, scope, rounds int, words func(P) int64, first func(origin int, val P)) {
	s.scope, s.words, s.first = scope, words, first
	n := env.N()
	if nw := (n + 63) / 64; len(s.seen) != nw {
		s.seen = make([]uint64, nw)
	} else {
		clear(s.seen)
	}
	if s.tabs == nil {
		s.tabs = env.SharedOnce("flood.tables", func() interface{} {
			return &[2][]P{make([]P, n), make([]P, n)}
		}).(*[2][]P)
	} else if s.loop.Rounds > 0 {
		s.cur ^= 1 // the table the last flood's readers do not read
	}
	s.base += s.loop.Rounds // the buffer the last iteration did not send
	s.reset(s.buf(0))
	if s.loop.Send == nil {
		s.loop = sim.Loop{Send: s.send, Recv: s.recv}
	}
	s.loop = sim.Loop{Rounds: rounds, NextSend: sim.Reactive, Send: s.loop.Send, Recv: s.loop.Recv}
}

// Inject enters origin's record into the flood, writing origin's slot of the
// shared table (so only origin's node may); it goes out with the first round.
func (s *State[P]) Inject(origin int, val P) {
	s.tabs[s.cur][origin] = val
	s.accept(s.buf(0), origin)
}

// Step implements sim.StepProgram.
func (s *State[P]) Step(env *sim.Env) bool { return s.loop.Step(env) }

// Heard returns origin's record if this node heard it in the current (or
// just finished) flood.
func (s *State[P]) Heard(origin int) (val P, ok bool) {
	if s.has(origin) {
		val, ok = s.tabs[s.cur][origin], true
	}
	return val, ok
}

// Table names the current flood's value table: States with equal Tables read
// the same flood's records (or those of one role's floods two Starts apart).
func (s *State[P]) Table() any { return &s.tabs[s.cur] }

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
		if !s.has(id) {
			return false
		}
	}
	return true
}

func (s *State[P]) has(o int) bool {
	return o >= 0 && o>>6 < len(s.seen) && s.seen[o>>6]&(1<<(o&63)) != 0
}

func (s *State[P]) buf(i int) *delta { return &s.bufs[(s.base+i)&1] }

func (s *State[P]) reset(d *delta) { d.scope, d.words, d.origins = s.scope, 0, d.origins[:0] }

// accept marks origin heard and stages it into next; the caller has checked
// that this is its first arrival.
func (s *State[P]) accept(next *delta, origin int) {
	s.seen[origin>>6] |= 1 << (origin & 63)
	val := s.tabs[s.cur][origin]
	next.origins = append(next.origins, int32(origin))
	next.words += s.words(val)
	if s.first != nil {
		s.first(origin, val)
	}
}

func (s *State[P]) send(env *sim.Env, i int) {
	if d := s.buf(i); len(d.origins) > 0 {
		env.BroadcastLocalWords(d, d.words)
	}
}

func (s *State[P]) recv(env *sim.Env, in sim.Inbox, i int) {
	// Rebuild the delta the NEXT send broadcasts; the one sent last round is
	// still being read by the neighbors this round.
	next := s.buf(i + 1)
	s.reset(next)
	for _, lm := range in.Local {
		d, ok := lm.Payload.(*delta)
		if !ok || d.scope != s.scope {
			continue
		}
		for _, o := range d.origins {
			if s.seen[o>>6]&(1<<(o&63)) == 0 {
				s.accept(next, int(o))
			}
		}
	}
}
