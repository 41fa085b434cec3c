package ncc

import (
	"math"

	"repro/internal/flatmap"
	"repro/internal/sim"
)

// PipelinedBroadcastMachine is the NCC-ONLY token broadcast used as the
// global-mode-only baseline of the paper's §1 model comparison ("if only
// the NCC model is used, the (approximate) APSP problem clearly requires
// Ω~(n) rounds"): k token slots are broadcast to every node using only the
// global network, one binomial-doubling wave per slot, pipelined so that
// wave b of slot t runs in round t+b. Each node sends at most one message
// per in-flight slot per round — at most ceil(log2 n) concurrent slots —
// which exactly fits the model's O(log n) cap.
//
// Slots are a fixed n × ell grid: slot t = v*ell + j carries node v's j-th
// token (absent tokens idle their slot). Rounds: n*ell + ceil(log2 n).
// The Θ(n·ell) cost is the point of the baseline: without the local mode
// there is no replication shortcut, so it is slower than Lemma B.1's
// O~(sqrt(k)) by roughly sqrt(k) — the HYBRID advantage E11 measures.
type PipelinedBroadcastMachine struct {
	// Out is the sorted known-token set; valid once Step returned true.
	// Shared like DisseminateMachine.Out.
	Out []Token

	loop     sim.Loop
	n, logN  int
	id, ell  int
	slots    int
	own      int                // how many of its ell slots this node fills
	known    tokenSet           // every token heard
	haveSlot flatmap.Map[Token] // slot -> its token, where this node knows it
}

// NewPipelinedBroadcastMachine builds the collective broadcast machine; all
// nodes must start it in the same round with the same ell. mine holds this
// node's tokens (those beyond ell are dropped).
func NewPipelinedBroadcastMachine(env *sim.Env, mine []Token, ell int) *PipelinedBroadcastMachine {
	n := env.N()
	m := &PipelinedBroadcastMachine{n: n, logN: sim.Log2Ceil(n), id: env.ID(), ell: ell, slots: n * ell}
	m.known.tab = tableOf(env)
	m.own = min(len(mine), ell)
	for j, t := range mine[:m.own] {
		m.haveSlot.Put(uint64(m.id*ell+j), t)
		m.known.add(t)
	}
	m.loop = sim.Loop{Rounds: m.slots + m.logN, Send: m.send, Recv: m.recv, NextSend: m.nextSend}
	return m
}

// Step implements sim.StepProgram.
func (m *PipelinedBroadcastMachine) Step(env *sim.Env) bool {
	if m.loop.Step(env) {
		m.Out = agreedTokens(env, &m.known)
		return true
	}
	return false
}

// forwardAt returns the first round >= r in which this node, knowing slot
// t, passes it on, and to whom. In round t+b the slot is in doubling phase b
// (0 <= b < logN): the nodes at the first 2^b offsets from the slot's source
// forward it to the offset 2^b further.
func (m *PipelinedBroadcastMachine) forwardAt(t, r int) (round, dst int) {
	src := t / m.ell
	off := ((m.id-src)%m.n + m.n) % m.n
	for b := max(r-t, 0); b < m.logN; b++ {
		if off < 1<<b && off+1<<b < m.n {
			return t + b, (src + off + 1<<b) % m.n
		}
	}
	return math.MaxInt, -1
}

func (m *PipelinedBroadcastMachine) send(env *sim.Env, r int) {
	for t := max(r-m.logN+1, 0); t <= r && t < m.slots; t++ {
		tok, have := m.haveSlot.Get(uint64(t))
		if !have {
			continue
		}
		if round, dst := m.forwardAt(t, r); round == r {
			env.SendGlobal(dst, kindPipeline, tok.A, tok.B, tok.C, int64(t))
		}
	}
}

// nextSend is the loop's schedule: the next forward of a slot in flight that
// this node knows (a slot it was sent is in flight when it arrives), or the
// entry of its own next slot into the pipeline.
func (m *PipelinedBroadcastMachine) nextSend(i int) int {
	next := math.MaxInt
	for t := max(i-m.logN+1, 0); t <= i && t < m.slots; t++ {
		if m.haveSlot.Has(uint64(t)) {
			round, _ := m.forwardAt(t, i)
			next = min(next, round)
		}
	}
	if t := max(m.id*m.ell, i+1); t < m.id*m.ell+m.own {
		round, _ := m.forwardAt(t, t)
		next = min(next, round)
	}
	return next
}

func (m *PipelinedBroadcastMachine) recv(env *sim.Env, in sim.Inbox, r int) {
	for _, gm := range in.Global {
		if gm.Kind != kindPipeline {
			continue
		}
		tok := Token{A: gm.F0, B: gm.F1, C: gm.F2}
		m.haveSlot.Put(uint64(gm.F3), tok)
		m.known.addPresented(tok)
	}
}
