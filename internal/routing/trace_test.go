package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// buildStepInstance constructs a small everyone-sends routing instance.
func buildStepInstance(n int) []Spec {
	specs := make([]Spec, n)
	rng := rand.New(rand.NewSource(31))
	for v := 0; v < n; v++ {
		r := rng.Intn(n)
		tok := Token{Label: Label{S: v, R: r, I: 0}, Value: int64(v * 7)}
		specs[v].Send = []Token{tok}
		specs[v].InS = true
		specs[r].InR = true
		specs[r].Expect = append(specs[r].Expect, tok.Label)
	}
	kR := 1
	for v := range specs {
		if len(specs[v].Expect) > kR {
			kR = len(specs[v].Expect)
		}
	}
	for v := range specs {
		specs[v].KS = 1
		specs[v].KR = kR
		specs[v].PS = 1
		specs[v].PR = 1
	}
	return specs
}

// tokenWords flattens a token list for the pinned hash.
func tokenWords(ts []Token) []int64 {
	w := []int64{int64(len(ts))}
	for _, t := range ts {
		w = append(w, int64(t.S), int64(t.R), t.I, t.Value)
	}
	return w
}

// TestRouteProgramMatchesPin holds the protocol's machines, on every
// engine, to the trace pinned from the blocking Route they replaced:
// session and route without a cache, populating a session cache, bound from
// it, and two instances routed over one session (the scratch a Session keeps
// between instances is reset, not reallocated).
func TestRouteProgramMatchesPin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.SparseConnected(40, 1.3, rng)
	specs := buildStepInstance(g.N())
	if err := Validate(specs); err != nil {
		t.Fatal(err)
	}
	pins := map[string]simtest.Pin{
		"uncached":      {Metrics: sim.Metrics{Rounds: 275, GlobalMsgs: 666, GlobalBits: 34632, LocalMsgs: 6487, LocalBits: 602958, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x27037dde48667d7d},
		"cache miss":    {Metrics: sim.Metrics{Rounds: 287, GlobalMsgs: 744, GlobalBits: 38688, LocalMsgs: 6487, LocalBits: 602958, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x27037dde48667d7d},
		"cache hit":     {Metrics: sim.Metrics{Rounds: 137, GlobalMsgs: 510, GlobalBits: 26520, LocalMsgs: 1871, LocalBits: 227508, MaxGlobalSend: 6, MaxGlobalRecv: 5}, Sum: 0x27037dde48667d7d},
		"session reuse": {Metrics: sim.Metrics{Rounds: 400, GlobalMsgs: 1098, GlobalBits: 57096, LocalMsgs: 8358, LocalBits: 830466, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0xa33e56f9cc33b92},
	}
	// The second instance over the shared session: the same pairs, other
	// values.
	again := func(id int) []Token {
		send := append([]Token(nil), specs[id].Send...)
		for i := range send {
			send[i].Value += 1000
		}
		return send
	}

	got := make([][]Token, g.N())
	machine := func(p Params) simtest.Factory {
		return func(env *sim.Env, emit func(...int64)) sim.StepProgram {
			id := env.ID()
			return NewRouteProgram(env, specs[id], p, func(toks []Token) {
				got[id] = toks
				emit(tokenWords(toks)...)
			})
		}
	}
	for _, eng := range simtest.Engines {
		simtest.Run(t, "uncached", g, eng, 12, pins["uncached"], machine(Params{}))
		cached := Params{Cache: NewSessionCache()}
		simtest.Run(t, "cache miss", g, eng, 12, pins["cache miss"], machine(cached))
		simtest.Run(t, "cache hit", g, eng, 12, pins["cache hit"], machine(cached))
		for v, spec := range specs {
			if len(got[v]) != len(spec.Expect) {
				t.Errorf("%s: node %d received %d tokens, expects %d", eng, v, len(got[v]), len(spec.Expect))
			}
			for _, tok := range got[v] {
				if tok.R != v || tok.Value != int64(tok.S*7) {
					t.Errorf("%s: node %d received %+v", eng, v, tok)
				}
			}
		}
	}
	simtest.Machines(t, "session reuse", g, 12, pins["session reuse"], func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		spec := specs[env.ID()]
		var sm *SessionMachine
		var rm *RouteMachine
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				sm = NewSessionMachine(env, spec.InS, spec.InR, spec.KS, spec.KR, spec.PS, spec.PR, Params{})
				return sm
			},
			func(env *sim.Env) sim.StepProgram {
				rm = NewRouteMachine(sm.Out, spec.Send, spec.Expect)
				return rm
			},
			func(env *sim.Env) sim.StepProgram {
				emit(tokenWords(rm.Out)...)
				rm = NewRouteMachine(sm.Out, again(env.ID()), spec.Expect)
				return rm
			},
			sim.Finish(func(*sim.Env) { emit(tokenWords(rm.Out)...) }),
		)
	})
}
