package ncc

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// The tests of this file hold each machine, on every engine, to the trace
// recorded from the blocking collective it replaced (re-recorded when the
// node streams became SplitMix64): Metrics and every node's output.

// tokenWords flattens a token list for the pinned hash.
func tokenWords(ts []Token) []int64 {
	w := []int64{int64(len(ts))}
	for _, t := range ts {
		w = append(w, t.A, t.B, t.C)
	}
	return w
}

func TestAggregateMachineMatches(t *testing.T) {
	g := graph.Grid(5, 7)
	pins := map[string]simtest.Pin{
		"max": {Metrics: sim.Metrics{Rounds: 12, GlobalMsgs: 68, GlobalBits: 3536, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0x4e92febbd4cf1074},
		"min": {Metrics: sim.Metrics{Rounds: 12, GlobalMsgs: 68, GlobalBits: 3536, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0x512a635d898f2a64},
		"sum": {Metrics: sim.Metrics{Rounds: 12, GlobalMsgs: 68, GlobalBits: 3536, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0x6c29da99443f1b83},
	}
	for name, op := range map[string]AggOp{"max": AggMax, "min": AggMin, "sum": AggSum} {
		value := func(id int) int64 { return int64(id * 3 % 17) }
		simtest.Machines(t, name, g, 5, pins[name], func(env *sim.Env, emit func(...int64)) sim.StepProgram {
			m := NewAggregateMachine(env, value(env.ID()), op)
			return sim.Then(m, func(*sim.Env) { emit(m.Out) })
		})
	}
}

func TestBroadcastWordsMachineMatches(t *testing.T) {
	g := graph.Path(19)
	words := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	const maxWords = 12
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 5, GlobalMsgs: 72, GlobalBits: 3312, MaxGlobalSend: 4, MaxGlobalRecv: 4}, Sum: 0x208b2c038cf73d45}
	mine := func(id int) []int64 {
		if id == 2 {
			return words
		}
		return nil
	}
	simtest.Machines(t, "broadcast", g, 6, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := NewBroadcastWordsMachine(env, 2, mine(env.ID()), maxWords)
		return sim.Then(m, func(*sim.Env) { emit(m.Out...) })
	})
}

func TestDisseminateMachineMatches(t *testing.T) {
	g := graph.Grid(6, 6)
	mineOf := func(id int) []Token {
		if id%5 != 0 {
			return nil
		}
		return []Token{{A: int64(id), B: int64(id * 2), C: 7}, {A: int64(id), B: int64(id*2 + 1), C: 8}}
	}
	k, ell := 2*(g.N()/5+1), 2
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 313, GlobalMsgs: 592, GlobalBits: 30784, LocalMsgs: 269, LocalBits: 34560, MaxGlobalSend: 6, MaxGlobalRecv: 8}, Sum: 0x5fa5d2afd91bb3a5}
	simtest.Machines(t, "disseminate", g, 7, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := NewDisseminateMachine(env, mineOf(env.ID()), k, ell, DisseminateParams{})
		return sim.Then(m, func(*sim.Env) { emit(tokenWords(m.Out)...) })
	})
}

// TestDisseminateMachineMatchesLocalTrace freezes the local flood of two
// disseminations in a row round by round, whatever its payload type: every
// node's output is the (round, sender) of each local message it received,
// then its tokens. k is large against log² n, so Phase 2 leaves about half
// the nodes without a given token and the flood carries tokens several hops,
// in deltas over more than one 64-token word.
func TestDisseminateMachineMatchesLocalTrace(t *testing.T) {
	g := graph.Path(24)
	const ell = 16
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 394, GlobalMsgs: 9984, GlobalBits: 459264, LocalMsgs: 533, LocalBits: 529920, MaxGlobalSend: 5, MaxGlobalRecv: 13}, Sum: 0xa63419aca55407b}
	simtest.Machines(t, "disseminate twice", g, 3, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		var outs [2]*DisseminateMachine
		run := func(i int) func(*sim.Env) sim.StepProgram {
			return func(env *sim.Env) sim.StepProgram {
				outs[i] = NewDisseminateMachine(env, runTokens(env.ID(), i, ell), g.N()*ell, ell, DisseminateParams{})
				return outs[i]
			}
		}
		inner := sim.Sequence(run(0), run(1))
		return sim.StepFunc(func(env *sim.Env) bool {
			for _, lm := range env.Incoming().Local {
				emit(int64(env.Round()), int64(lm.From))
			}
			if !inner.Step(env) {
				return false
			}
			for _, m := range outs {
				emit(tokenWords(m.Out)...)
			}
			return true
		})
	})
}

// runTokens is node id's ell tokens for the run-th dissemination of a run,
// distinct across nodes and runs.
func runTokens(id, run, ell int) []Token {
	ts := make([]Token, ell)
	for j := range ts {
		ts[j] = Token{A: int64(id), B: int64(run), C: int64(j)}
	}
	return ts
}
