// Package flood is the one flood the paper's protocols keep repeating:
// "flood inside the cluster / to radius h, forward on first arrival". Every
// origin injects one record at a node that holds it; a node that hears an
// origin for the first time keeps the record and forwards it in the next
// round, and hears it from then on for nothing. Algorithm 1's member and W
// floods (package helpers), Algorithm 3's helper announcements and token
// spreading and Algorithm 4's final collection (package routing), Theorem
// 1.1's label-vector flood (package skeleton), Algorithm 9's h_v
// exploration (package diameter) and Phase 3 of Lemma B.1's token
// dissemination (package ncc) are instantiations: a payload type, a word
// charge per record, and what to do with a first arrival.
//
// Origins are the integers [0, K) for the origin count K every node passes
// to Start: node IDs (K = n) for the node floods, the indices of the
// instance's token table for the dissemination. First-arrival dedup is one
// bit per origin in a dense bitset — no hashing, no probing, cleared (not
// reallocated) when the state is started again. That is K/8 bytes per node
// and live flood: 2 KB at routing's n = 2^14 limit (Label.pack), where a
// session keeps three floods' state per node. What a node learned is that
// bitset over the flood's value table, which Heard reads.
//
// # Memory discipline
//
// A record's value is stored once per flood, not once per node that hears
// it: every node's State of one flood role (the i-th State a node starts, in
// the collective order all nodes share) takes the same pair of K-slot value
// tables from sim.Env.SharedOnce, and a delta carries only which origins it
// holds. Inject writes the origin's slot before the flood's first round; a
// node reads a slot only at an origin it heard, which takes a message sent
// after the write, so the round barrier orders the two. Several nodes may
// inject one origin only where the payload has size zero and a slot holds
// nothing, as in the dissemination, whose tokens have several holders. On
// kssp_mm_sparse_400 this took cmd/bench's alloc_mb from 54.8 to 30.9 MB and
// peak_rss_mb from 39.5 to 26.8 MB.
//
// A delta is the ascending list of the nonzero 64-origin words of its
// origins' bitset, as (word index, bits) pairs of 16 bytes, so a receiver
// takes a whole word's first arrivals with one and-not against its dedup
// bitset instead of one bit test per origin. It gathers them in an
// accumulator kept in the node's pair: K/64 words of origin bits plus K/4096
// words with a bit per nonzero word, about K/8 bytes per node — 2 MB for all
// nodes at n = 4 096, 32 MB at n = 16 384 for the node floods — grown at a
// Start to the largest K the node has flooded, so allocated once per node
// and run when K is n. Draining it in word order stages the next delta, and
// calls the first-arrival hooks, in ascending origin order without a sort,
// and leaves it zero for the next round.
//
// # The rotation rule
//
// A delta is broadcast by pointer, so its buffer must not be rewritten while
// a neighbour may read it. A delta built in round r is read by the neighbours
// in round r+1, in the same step phase in which its sender builds the delta
// of r+1; so a sender keeps a pair of buffers, builds r+1's in the other one,
// and rebuilds the first no earlier than round r+2, when every reader has
// passed the barrier that ends r+1. Once a wave has peaked both buffers have
// the capacity every later round needs, and a round allocates nothing. This
// is the rule's one statement: skeleton.ExploreMachine's relaxation and
// helpers' cluster wave, the two local delta loops that are not
// first-arrival floods, keep a pair of their own under it.
//
// A node's floods share one pair, kept in its sim.Env.Scratch slot and
// indexed by absolute round: the delta sent in round r is slot r&1. Two
// rules make the absolute rounds safe. A node runs one flood at a time:
// Start fails the run if the node's last flood has rounds left, and a
// flood's closing segment reads its last inbox without staging a delta, so
// the next flood may start in that very segment while the neighbors still
// read the last delta sent. And a flood's first Step comes in its Start
// round, where Inject wrote the slot that round sends (a later first Step
// fails the run). The pair grows to the largest delta any of the node's
// floods staged, once per node and run rather than once per flood role;
// after that a flood round allocates nothing, from the first flood of a
// fresh State on. On kssp_mm_sparse_400 sharing the pair
// took alloc_mb from 30.2 to 24.7 MB. The value tables rotate per State: a
// Start after a flood that ran rounds switches tables, so it never
// overwrites a value the last flood's readers still look up. Record
// payloads (slices, typically) are shared by every node that hears them and
// must never be mutated.
package flood

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// delta is the local-mode payload of a flood: the origins a node heard first
// in the previous round, of its scope, so a receiver of another scope skips
// the delta with one compare; the word charge grows as origins are added.
type delta struct {
	scope int
	words int64
	sets  []originWord // ascending by w, no zero bits
}

// originWord is the origins w<<6 + b for every set bit b of bits.
type originWord struct {
	w    int
	bits uint64
}

// pair is a node's two delta buffers, shared by all of its floods: the delta
// sent in round r is bufs[r&1]. end is the round in which the node's latest
// flood has its closing segment; no other flood may start before it. acc
// gathers the first arrivals of the round being received, by 64-origin word,
// and touched has a bit per nonzero word of acc; both are zero between
// rounds.
type pair struct {
	bufs    [2]delta
	end     int
	acc     []uint64
	touched []uint64
}

// pairOf returns env's node's pair, made on the node's first Start, with an
// accumulator for `origins` origins at least. It grows only at a Start, when
// the accumulator is all zero.
func pairOf(env *sim.Env, origins int) *pair {
	slot := env.Scratch()
	p, _ := (*slot).(*pair)
	if p == nil {
		p = new(pair)
		*slot = p
	}
	if nw := (origins + 63) / 64; len(p.acc) < nw {
		p.acc, p.touched = make([]uint64, nw), make([]uint64, (nw+63)/64)
	}
	return p
}

// State is one node's side of a flood: the dedup bitset, the role's value
// tables and the loop; the delta buffers are the node's (see pair). The zero
// value is ready for Start; a State may be started again once its flood has
// finished, and then reuses its memory and the loop callbacks its first
// Start bound to it — so a started State must not be copied.
type State[P any] struct {
	scope int
	words func(P) int64
	first func(origin int, val P)
	seen  []uint64
	tabs  *[2][]P // the role's value tables, shared by every node's State
	cur   int     // the current flood's table is tabs[cur]
	pair  *pair
	start int // the round Start ran in, which is the first send's
	loop  sim.Loop
}

// Start arms the flood: `rounds` rounds of first-arrival forwarding of the
// origins [0, origins) among the nodes that pass the same scope (a cluster's
// ruler; any constant for a flood bounded by its radius only). Every node
// must start it in the same round with the same origin and round counts, and
// its States in the same order (a first Start names the role and sizes its
// value tables, so a State's later Starts pass the same origin count). words
// is the charge of one record in O(log n)-bit words, as if it travelled
// alone; first, if non-nil, is called exactly once per origin this node
// hears (its injected ones included), in the round it hears it: at Inject
// for an injected origin, and in ascending origin order for the origins
// first heard in one round.
// Inject this node's own records, if it has any, before the first Step, and
// take that Step in the round of Start. Start fails the run if the node's
// last flood, of any State, has rounds left.
func (s *State[P]) Start(env *sim.Env, origins, scope, rounds int, words func(P) int64, first func(origin int, val P)) {
	r := env.Round()
	s.pair = pairOf(env, origins)
	if r < s.pair.end {
		panic(fmt.Errorf("flood: node %d starts a flood in round %d, before its running flood ends in round %d",
			env.ID(), r, s.pair.end))
	}
	s.start, s.pair.end = r, r+rounds
	s.scope, s.words, s.first = scope, words, first
	if nw := (origins + 63) / 64; len(s.seen) != nw {
		s.seen = make([]uint64, nw)
	} else {
		clear(s.seen)
	}
	if s.tabs == nil {
		s.tabs = env.SharedOnce("flood.tables", func() interface{} {
			return &[2][]P{make([]P, origins), make([]P, origins)}
		}).(*[2][]P)
	} else if s.loop.Rounds > 0 {
		s.cur ^= 1 // the table the last flood's readers do not read
	}
	s.reset(r)
	if s.loop.Send == nil {
		s.loop = sim.Loop{Send: s.send, Recv: s.recv}
	}
	s.loop = sim.Loop{Rounds: rounds, NextSend: sim.Reactive, Send: s.loop.Send, Recv: s.loop.Recv}
}

// Inject enters origin's record into the flood, writing origin's slot of the
// shared table (so only one node may, unless P has size zero); it goes out
// with the first round.
func (s *State[P]) Inject(origin int, val P) {
	s.tabs[s.cur][origin] = val
	w, bit := origin>>6, uint64(1)<<(origin&63)
	s.seen[w] |= bit
	d := &s.pair.bufs[s.start&1]
	j, found := slices.BinarySearchFunc(d.sets, w, func(ow originWord, w int) int { return cmp.Compare(ow.w, w) })
	if found {
		d.sets[j].bits |= bit
	} else {
		d.sets = slices.Insert(d.sets, j, originWord{w, bit})
	}
	s.accept(d, origin)
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
// ascending list of distinct origins — that is, whether AppendOrigins would
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

// reset empties the delta sent in round r for this flood's scope.
func (s *State[P]) reset(r int) *delta {
	d := &s.pair.bufs[r&1]
	d.scope, d.words, d.sets = s.scope, 0, d.sets[:0]
	return d
}

// accept charges a first arrival to next, if the flood sends again, and
// hands it to the hook; origin is already marked heard, and in next's sets.
func (s *State[P]) accept(next *delta, origin int) {
	val := s.tabs[s.cur][origin]
	if next != nil {
		next.words += s.words(val)
	}
	if s.first != nil {
		s.first(origin, val)
	}
}

func (s *State[P]) send(env *sim.Env, i int) {
	r := env.Round()
	if i == 0 && r != s.start {
		panic(fmt.Errorf("flood: node %d started a flood in round %d but first stepped it in round %d",
			env.ID(), s.start, r))
	}
	if d := &s.pair.bufs[r&1]; len(d.sets) > 0 {
		env.BroadcastLocalWords(d, d.words)
	}
}

func (s *State[P]) recv(env *sim.Env, in sim.Inbox, i int) {
	// Rebuild the delta this round's send broadcasts; the one sent last round
	// is still being read by the neighbors this round. The closing segment
	// (no send follows) stages nothing, so the node's next flood may start in
	// it.
	var next *delta
	if i+1 < s.loop.Rounds {
		next = s.reset(env.Round())
	}
	acc, touched := s.pair.acc, s.pair.touched
	for _, lm := range in.Local {
		d, ok := lm.Payload.(*delta)
		if !ok || d.scope != s.scope {
			continue
		}
		for _, ow := range d.sets {
			fresh := ow.bits &^ s.seen[ow.w]
			if fresh == 0 {
				continue
			}
			s.seen[ow.w] |= fresh
			if acc[ow.w] == 0 {
				touched[ow.w>>6] |= 1 << (ow.w & 63)
			}
			acc[ow.w] |= fresh
		}
	}
	// Drain the round's first arrivals in ascending origin order.
	for tw, t := range touched {
		if t == 0 {
			continue
		}
		touched[tw] = 0
		for ; t != 0; t &= t - 1 {
			w := tw<<6 + bits.TrailingZeros64(t)
			word := acc[w]
			acc[w] = 0
			if next != nil {
				next.sets = append(next.sets, originWord{w, word})
			}
			for ; word != 0; word &= word - 1 {
				s.accept(next, w<<6+bits.TrailingZeros64(word))
			}
		}
	}
}
