package routing

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/helpers"
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

// directoryWords flattens what a Session keeps of one helper family — the
// cluster's member and W lists, the node's own memberships, the helper
// directory by ascending owner, and the owners this node helps — for the
// pinned hash.
func (f *family) directoryWords() []int64 {
	w := []int64{int64(f.res.Ruler), int64(f.mu)}
	w = append(w, simtest.Ints(f.res.Members)...)
	w = append(w, simtest.Ints(f.res.WMembers)...)
	w = append(w, simtest.Ints(f.res.Helps)...)
	owners := make([]int, 0, len(f.helperSets))
	for o := range f.helperSets {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	w = append(w, int64(len(owners)))
	for _, o := range owners {
		w = append(w, int64(o))
		w = append(w, simtest.Ints(f.helperSets[o])...)
	}
	return append(w, simtest.Ints(f.myOwners)...)
}

// TestSessionDirectoriesMatchPin freezes, node by node, the directories a
// Session ends up with (both families' cluster lists, helperSets, myOwners),
// which no routed token depends on visibly enough for the route pins above to
// notice: built cold, built while populating the caches, and bound from them,
// on the routing pin's graph and on the helpers pin's graph.
func TestSessionDirectoriesMatchPin(t *testing.T) {
	type instance struct {
		g        *graph.Graph
		seed     int64
		inS, inR []bool
		kS, kR   int
		params   Params
		pins     map[string]simtest.Pin
	}
	var instances []instance
	{
		rng := rand.New(rand.NewSource(8))
		g := graph.SparseConnected(40, 1.3, rng)
		specs := buildStepInstance(g.N())
		in := instance{g: g, seed: 12, kS: specs[0].KS, kR: specs[0].KR,
			inS: make([]bool, g.N()), inR: make([]bool, g.N())}
		for v, sp := range specs {
			in.inS[v], in.inR[v] = sp.InS, sp.InR
		}
		in.pins = map[string]simtest.Pin{
			"uncached":   {Metrics: sim.Metrics{Rounds: 150, GlobalMsgs: 234, GlobalBits: 12168, LocalMsgs: 4616, LocalBits: 375450, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x26974cecfb4a66e3},
			"cache miss": {Metrics: sim.Metrics{Rounds: 162, GlobalMsgs: 468, GlobalBits: 24336, LocalMsgs: 3621, LocalBits: 359094, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x26974cecfb4a66e3},
			"cache hit":  {Metrics: sim.Metrics{Rounds: 12, GlobalMsgs: 78, GlobalBits: 4056, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0x26974cecfb4a66e3},
		}
		instances = append(instances, in)
	}
	{
		rng := rand.New(rand.NewSource(3))
		g := graph.SparseConnected(60, 1.2, rng)
		in := instance{g: g, seed: 9, kS: 9, kR: 4, params: Params{MuS: 3},
			inS: make([]bool, g.N()), inR: make([]bool, g.N())}
		for v := range in.inS {
			in.inS[v] = rng.Float64() < 0.25
			in.inR[v] = v%3 == 0
		}
		in.pins = map[string]simtest.Pin{
			"uncached":   {Metrics: sim.Metrics{Rounds: 294, GlobalMsgs: 354, GlobalBits: 18408, LocalMsgs: 8076, LocalBits: 1588236, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x653fee58b143256},
			"cache miss": {Metrics: sim.Metrics{Rounds: 330, GlobalMsgs: 708, GlobalBits: 36816, LocalMsgs: 8076, LocalBits: 1588236, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x653fee58b143256},
			"cache hit":  {Metrics: sim.Metrics{Rounds: 12, GlobalMsgs: 118, GlobalBits: 6136, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0x653fee58b143256},
		}
		instances = append(instances, in)
	}
	for i, in := range instances {
		machine := func(p Params) simtest.Factory {
			return func(env *sim.Env, emit func(...int64)) sim.StepProgram {
				id := env.ID()
				sm := NewSessionMachine(env, in.inS[id], in.inR[id], in.kS, in.kR, 1, 1, p)
				return sim.Then(sm, func(*sim.Env) {
					emit(sm.Out.famS.directoryWords()...)
					emit(sm.Out.famR.directoryWords()...)
				})
			}
		}
		for _, eng := range simtest.Engines {
			name := func(s string) string { return fmt.Sprintf("graph %d %s", i, s) }
			simtest.Run(t, name("uncached"), in.g, eng, in.seed, in.pins["uncached"], machine(in.params))
			cached := in.params
			cached.Cache = NewSessionCache()
			cached.Helpers.Clusters = helpers.NewClusterCache()
			simtest.Run(t, name("cache miss"), in.g, eng, in.seed, in.pins["cache miss"], machine(cached))
			simtest.Run(t, name("cache hit"), in.g, eng, in.seed, in.pins["cache hit"], machine(cached))
		}
	}
}
