// Package ncc implements the global-communication primitives the paper
// imports from prior work, as collective operations on the sim runtime:
//
//   - AggregateMachine (Lemma B.2, from Augustine et al. [2]): compute an
//     aggregate-distributive function (min/max/sum) of per-node values and
//     announce the result to all nodes in O(log n) rounds using only the
//     global network.
//   - BroadcastWordsMachine (used by Lemma 2.3): a designated source announces an
//     O(log^2 n)-bit value (e.g. the hash-function seed) to all nodes in
//     O~(1) rounds via binomial doubling on the global network.
//   - DisseminateMachine (Lemma B.1, Theorem 2.1 of [3]): the token dissemination
//     protocol — k tokens, at most ell per node, become known to every node
//     in O~(sqrt(k) + ell) rounds using both communication modes.
//
// All three are collective machines (sim.StepProgram): every node must
// start them in the same round, and they finish after a deterministic number
// of rounds computed from parameters every node knows (n, k, ell), so
// lockstep is preserved. An AggregateMachine can also be embedded by value
// in a machine that aggregates repeatedly (routing's RouteMachine runs four
// kinds per instance): AggregateMachine.Start re-arms it in place once its
// previous aggregation finished.
package ncc

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// Message kinds used by this package (namespaced high to avoid colliding
// with algorithm-level kinds).
const (
	kindAggUp sim.Kind = 0x7e00 + iota
	kindAggDown
	kindBcastWord
	kindBalance
	kindReplicate
	kindPipeline
)

// AggOp selects the aggregate-distributive function (paper Lemma B.2 covers
// any such f; min, max and sum are the ones the algorithms use).
type AggOp int

// Supported aggregate operations.
const (
	AggMax AggOp = iota + 1
	AggMin
	AggSum
)

func (op AggOp) combine(a, b int64) int64 {
	switch op {
	case AggMax:
		if a >= b {
			return a
		}
		return b
	case AggMin:
		if a <= b {
			return a
		}
		return b
	default:
		return a + b
	}
}

// AggregateMachine computes op over every node's value and announces the
// result to all nodes. It takes exactly 2*ceil(log2 n) rounds: a
// binomial-tree convergecast to node 0 followed by a binomial-tree downcast
// (the NCC aggregation scheme of [2], Lemma B.2).
type AggregateMachine struct {
	// Out is the aggregate, announced at every node; valid once Step
	// returned true.
	Out int64

	loop sim.Loop
	op   AggOp
	logN int
	n    int
	id   int
}

// NewAggregateMachine builds the collective aggregation machine; all nodes
// must start it in the same round with the same op.
func NewAggregateMachine(env *sim.Env, value int64, op AggOp) *AggregateMachine {
	m := new(AggregateMachine)
	m.Start(env, value, op)
	return m
}

// Start re-arms m, in place, for a new aggregation of value under op, with
// the contract of NewAggregateMachine; m's previous aggregation must have
// finished. The loop's callbacks are bound on the first Start only, so a
// machine embedded in a longer-lived one aggregates again without
// allocating.
func (m *AggregateMachine) Start(env *sim.Env, value int64, op AggOp) {
	m.Out, m.op, m.logN, m.n, m.id = value, op, sim.Log2Ceil(env.N()), env.N(), env.ID()
	if m.loop.Send == nil {
		m.loop = sim.Loop{Send: m.send, Recv: m.recv, NextSend: m.nextSend}
	}
	m.loop = sim.Loop{Rounds: 2 * m.logN, Send: m.loop.Send, Recv: m.loop.Recv, NextSend: m.loop.NextSend}
}

// Step implements sim.StepProgram.
func (m *AggregateMachine) Step(env *sim.Env) bool { return m.loop.Step(env) }

// target is the binomial-tree schedule: where this node sends in iteration i,
// if it does. Convergecast: in step b, node i with i mod 2^(b+1) == 2^b sends
// its accumulator to i - 2^b and receivers fold; node 0 then holds the
// result and the downcast reverses the tree.
func (m *AggregateMachine) target(i int) (dst int, kind sim.Kind, ok bool) {
	id := m.id
	if i < m.logN {
		stride, half := 1<<(i+1), 1<<i
		return id - half, kindAggUp, id%stride == half
	}
	b := 2*m.logN - 1 - i
	stride, half := 1<<(b+1), 1<<b
	return id + half, kindAggDown, id%stride == 0 && id+half < m.n
}

func (m *AggregateMachine) send(env *sim.Env, i int) {
	if dst, kind, ok := m.target(i); ok {
		env.SendGlobal(dst, kind, m.Out, 0, 0, 0)
	}
}

// nextSend is the loop's schedule: the node's next slot in the tree. What
// it sends there is whatever arrived until then, and arrivals wake it.
func (m *AggregateMachine) nextSend(i int) int {
	for ; i < 2*m.logN; i++ {
		if _, _, ok := m.target(i); ok {
			break
		}
	}
	return i
}

func (m *AggregateMachine) recv(env *sim.Env, in sim.Inbox, i int) {
	if i < m.logN {
		for _, gm := range in.Global {
			if gm.Kind == kindAggUp {
				m.Out = m.op.combine(m.Out, gm.F0)
			}
		}
		return
	}
	for _, gm := range in.Global {
		if gm.Kind == kindAggDown {
			m.Out = gm.F0
		}
	}
}

// BroadcastWordsMachine announces the source node's word vector to every
// node via binomial doubling over the global network. The source's slice is
// padded to maxWords with zeros. The operation takes
// ceil(log2 n) * ceil(ceil(maxWords/3)/cap) rounds.
type BroadcastWordsMachine struct {
	// Out is the padded word vector; valid once Step returned true (only
	// then is it guaranteed complete).
	Out []int64

	loop          sim.Loop
	n             int
	source        int
	maxWords      int
	msgs          int
	roundsPerStep int
	budget        int
	off           int // this node's offset from the source, mod n
	have          bool
}

// NewBroadcastWordsMachine builds the collective broadcast machine; all
// nodes must start it in the same round with the same source and the same
// maxWords (an upper bound on len(words) known to everyone, e.g. the
// O(log n) seed length of Lemma 2.3).
func NewBroadcastWordsMachine(env *sim.Env, source int, words []int64, maxWords int) *BroadcastWordsMachine {
	m := &BroadcastWordsMachine{
		n:        env.N(),
		source:   source,
		maxWords: maxWords,
		budget:   env.GlobalCap(),
		Out:      make([]int64, maxWords),
	}
	m.off = ((env.ID()-source)%m.n + m.n) % m.n
	if env.ID() == source {
		copy(m.Out, words)
		m.have = true
	}
	m.msgs = (maxWords + 2) / 3 // 3 words per message, field 3 is the index
	m.roundsPerStep = (m.msgs + m.budget - 1) / m.budget
	if m.roundsPerStep == 0 {
		m.roundsPerStep = 1
	}
	m.loop = sim.Loop{Rounds: sim.Log2Ceil(m.n) * m.roundsPerStep, Send: m.send, Recv: m.recv, NextSend: m.nextSend}
	return m
}

// Step implements sim.StepProgram.
func (m *BroadcastWordsMachine) Step(env *sim.Env) bool { return m.loop.Step(env) }

// forwards reports whether this node, holding the vector, passes it on in
// doubling step b: the first 2^b offsets do, each to the offset 2^b further.
func (m *BroadcastWordsMachine) forwards(b int) bool {
	half := 1 << b
	return m.off < half && m.off+half < m.n
}

func (m *BroadcastWordsMachine) send(env *sim.Env, i int) {
	b := i / m.roundsPerStep
	if !m.have || !m.forwards(b) {
		return
	}
	dst := (m.source + m.off + (1 << b)) % m.n
	// A step's messages go out budget per round; the round within the step
	// says which (no counter, so that rounds slept through cost nothing).
	first := i % m.roundsPerStep * m.budget
	for idx := first; idx < first+m.budget && idx < m.msgs; idx++ {
		j := idx * 3
		var w0, w1, w2 int64
		w0 = m.Out[j]
		if j+1 < m.maxWords {
			w1 = m.Out[j+1]
		}
		if j+2 < m.maxWords {
			w2 = m.Out[j+2]
		}
		env.SendGlobal(dst, kindBcastWord, w0, w1, w2, int64(idx))
	}
}

// nextSend is the loop's schedule: a node that holds the vector forwards it
// in every round of the doubling steps forwards names, and one that does
// not waits for it to arrive.
func (m *BroadcastWordsMachine) nextSend(i int) int {
	if !m.have {
		return math.MaxInt
	}
	for b := i / m.roundsPerStep; 1<<b < m.n; b++ {
		if m.forwards(b) {
			return max(i, b*m.roundsPerStep)
		}
	}
	return math.MaxInt
}

func (m *BroadcastWordsMachine) recv(env *sim.Env, in sim.Inbox, i int) {
	for _, gm := range in.Global {
		if gm.Kind != kindBcastWord {
			continue
		}
		j := int(gm.F3) * 3
		m.Out[j] = gm.F0
		if j+1 < m.maxWords {
			m.Out[j+1] = gm.F1
		}
		if j+2 < m.maxWords {
			m.Out[j+2] = gm.F2
		}
		m.have = true
	}
}

// Token is one O(log n)-bit token of the dissemination problem: three
// log n-bit words, enough for every use in the paper (edge (u,v,w) triples,
// representative labels (d, id(v), id(r)), distance labels).
type Token struct {
	A, B, C int64
}

// DisseminateParams tunes the w.h.p. constants of the protocol. Zero values
// select defaults that hold at the scales the test suite exercises.
type DisseminateParams struct {
	// ReplicationFactor scales m = ReplicationFactor * n * logN / r, the
	// number of random copies placed per token. Default 2.
	ReplicationFactor int
	// FloodSlack scales the local flood radius r beyond ceil(sqrt(k)).
	// Default 1 (radius max(sqrt(k), 2 logN)).
	FloodSlack int
}

func (p DisseminateParams) withDefaults() DisseminateParams {
	if p.ReplicationFactor <= 0 {
		p.ReplicationFactor = 2
	}
	if p.FloodSlack <= 0 {
		p.FloodSlack = 1
	}
	return p
}

// DisseminateMachine implements the token dissemination protocol of [3]
// (Lemma B.1): all k tokens become known to every node. The protocol takes
// a deterministic O~(sqrt(k) + ell) number of rounds:
//
//  1. Balancing: every node sends each of its tokens to a uniformly random
//     node, paced at the cap — ceil(ell/cap) rounds. Afterwards each node
//     holds O(k/n + log n) tokens w.h.p.
//  2. Replication: each holder sends each held token to m ~ n*log(n)/r
//     uniformly random nodes, paced at the cap. Since every radius-r ball
//     of a connected graph contains more than r nodes, every ball then
//     holds a copy of every token w.h.p.
//  3. Local flooding: r rounds of delta-flooding over G deliver every token
//     to every node.
//
// With r = Theta(sqrt(k)) the total is O~(ell + k/r + r) = O~(sqrt(k)+ell).
type DisseminateMachine struct {
	// Out is the sorted known-token set; valid once Step returned true. It
	// is shared by every node that ended up knowing the same set (see
	// agreedTokens) and must not be written to.
	Out []Token

	known tokenSet // over the instance's table, see tokenTable
	prog  sim.StepProgram
}

// replicateJob is one held token of phase 2 and the copies still to place.
type replicateJob struct {
	t    Token
	left int
}

// NewDisseminateMachine builds the collective dissemination machine; all
// nodes must start it in the same round with the same k, ell and params.
// mine holds this node's initial tokens; k and ell are globally known upper
// bounds on the total token count and the per-node count.
func NewDisseminateMachine(env *sim.Env, mine []Token, k, ell int, params DisseminateParams) *DisseminateMachine {
	p := params.withDefaults()
	n := env.N()
	logN := sim.Log2Ceil(n)
	budget := env.GlobalCap()
	m := &DisseminateMachine{known: tokenSet{tab: tableOf(env), bits: make([]uint64, (max(k, 0)+63)/64)}}
	known := &m.known
	for _, t := range mine {
		known.add(t)
	}
	if k <= 0 {
		m.Out = known.sorted()
		m.prog = sim.Sequence()
		return m
	}

	// The deterministic schedule, identical at every node.
	r := isqrt(k)
	if min := 2 * logN * p.FloodSlack; r < min {
		r = min
	}
	copies := (p.ReplicationFactor*n*logN + r - 1) / r
	if copies > n {
		copies = n
	}
	heldBound := 2*((k+n-1)/n) + 8*logN
	balanceRounds := (ell + budget - 1) / budget
	replicateRounds := (heldBound*copies + budget - 1) / budget

	held := make([]Token, 0, heldBound)
	idx := 0
	var jobs []replicateJob
	ji := 0
	// Phase 3 delta buffers. They rotate (see skeleton.ExploreMachine for the
	// ownership argument), so a staged batch is rewritten only after every
	// reader has taken the next barrier and steady-state flood rounds are
	// allocation-free. A batch names its tokens by table index, so the flood
	// costs a bit test per token heard and never touches the table.
	var bufs [2]tokenBatch

	m.prog = sim.Sequence(
		// Phase 1: balancing.
		func(env *sim.Env) sim.StepProgram {
			return &sim.Loop{
				Rounds:   balanceRounds,
				NextSend: sim.Pending(func() bool { return idx < len(mine) }),
				Send: func(env *sim.Env, i int) {
					for s := 0; s < budget && idx < len(mine); s++ {
						t := mine[idx]
						idx++
						env.SendGlobal(env.Rand().Intn(n), kindBalance, t.A, t.B, t.C, 0)
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					for _, gm := range in.Global {
						if gm.Kind == kindBalance {
							held = append(held, Token{gm.F0, gm.F1, gm.F2})
						}
					}
				},
			}
		},
		// Phase 2: replication. Each held token goes to `copies` random
		// nodes. Jobs beyond the schedule (a node holding more than
		// heldBound, which is a low-probability event) are truncated;
		// round-robin over tokens keeps the truncation proportional.
		func(env *sim.Env) sim.StepProgram {
			jobs = make([]replicateJob, len(held))
			for i, t := range held {
				jobs[i] = replicateJob{t: t, left: copies}
			}
			copiesLeft := len(held) * copies
			return &sim.Loop{
				Rounds: replicateRounds,
				// The schedule is sized for the worst-case load heldBound; a
				// node is through once its own copies are out.
				NextSend: sim.Pending(func() bool { return copiesLeft > 0 }),
				Send: func(env *sim.Env, i int) {
					for s := 0; s < budget; s++ {
						scanned := 0
						for len(jobs) > 0 && scanned < len(jobs) {
							if jobs[ji%len(jobs)].left > 0 {
								break
							}
							ji++
							scanned++
						}
						if len(jobs) == 0 || scanned == len(jobs) {
							break
						}
						j := &jobs[ji%len(jobs)]
						j.left--
						copiesLeft--
						ji++
						env.SendGlobal(env.Rand().Intn(n), kindReplicate, j.t.A, j.t.B, j.t.C, 0)
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					for _, gm := range in.Global {
						if gm.Kind == kindReplicate {
							known.add(Token{A: gm.F0, B: gm.F1, C: gm.F2})
						}
					}
				},
			}
		},
		// Phase 3: delta flooding over the local network. Tokens this node
		// held also count as known.
		func(env *sim.Env) sim.StepProgram {
			for _, j := range jobs {
				known.add(j.t)
			}
			bufs[0] = known.appendIndices(nil)
			return &sim.Loop{
				Rounds:   r,
				NextSend: sim.Reactive,
				Send: func(env *sim.Env, i int) {
					if len(bufs[i&1]) > 0 {
						env.BroadcastLocalWords(&bufs[i&1], 3*int64(len(bufs[i&1])))
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					next := bufs[(i+1)&1][:0]
					for _, lm := range in.Local {
						ts, ok := lm.Payload.(*tokenBatch)
						if !ok {
							continue
						}
						for _, i := range *ts {
							if known.learn(i) {
								next = append(next, i)
							}
						}
					}
					bufs[(i+1)&1] = next
				},
			}
		},
		sim.Finish(func(env *sim.Env) { m.Out = agreedTokens(env, known) }),
	)
	return m
}

// Step implements sim.StepProgram.
func (m *DisseminateMachine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// tokenBatch is the local-mode payload of the dissemination flood: a batch
// of tokens, each named by its index in the instance's table and charged as
// the token's three words.
type tokenBatch []int32

// agreedOut is a finished collective's sorted output with the knowledge it
// was sorted from.
type agreedOut struct {
	from tokenSet
	out  []Token
}

// outKey is the sim.Agreed slot of a finished collective's output.
type outKey struct{}

// agreedTokens is known.sorted() for a set the protocol has made public
// knowledge: every node that knows the same set — the same table, the same
// bits — gets the same slice, sorted once; a node that missed a token (the
// guarantee is w.h.p.) sorts its own. known must not change afterwards.
func agreedTokens(env *sim.Env, known *tokenSet) []Token {
	return sim.Agreed(env, outKey{},
		func(a agreedOut) bool { return a.from.sameAs(known) },
		func() agreedOut { return agreedOut{*known, known.sorted()} }).out
}

// SameTokens reports whether two token lists are equal. Lists that share
// their storage, as the Out of an agreed dissemination does across nodes, are
// recognised without being read.
func SameTokens(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}

// derived is a value computed from a disseminated token list, with that list.
type derived[T any] struct {
	from []Token
	val  T
}

// Derived returns build(tokens) — what a node computes locally from a
// disseminated token list: a decoded member list, APSP on the published
// skeleton graph — computed once for all the nodes whose list is the same
// (sim.Agreed under key, which must be the caller's own type). The result is
// shared and must not be written to; build must be a pure function of its
// argument.
func Derived[T any](env *sim.Env, key any, tokens []Token, build func([]Token) T) T {
	return sim.Agreed(env, key,
		func(d derived[T]) bool { return SameTokens(d.from, tokens) },
		func() derived[T] { return derived[T]{tokens, build(tokens)} }).val
}

// isqrt returns ceil(sqrt(x)) for x >= 0.
func isqrt(x int) int {
	if x <= 0 {
		return 0
	}
	r := 1
	for r*r < x {
		r++
	}
	return r
}
