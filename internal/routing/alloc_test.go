package routing

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestRouteFloodRoundsZeroAlloc is the memory-discipline gate of the
// cluster floods (the routing counterpart of hybridapsp's
// TestSteadyStateRoundZeroAlloc): once a Session has routed an instance
// twice, the rounds inside the third Route's spread and collect floods
// allocate nothing — the flood states (flood.State: rotated delta buffers,
// dedup bitset), the batch directories and the collected-token storage are
// the session's and are reset, not reallocated. A per-round map, a delta
// slice grown from nil or a payload boxed by value would show up here as a
// nonzero count.
//
// The measured windows are the first rounds of each flood, when the waves
// are travelling; the quiet tail behind them is fast-forwarded and could
// not allocate if it wanted to.
func TestRouteFloodRoundsZeroAlloc(t *testing.T) {
	g := graph.Grid(8, 8)
	specs := buildInstance(g.N(), 0.5, 0.5, 3, 4)
	if err := Validate(specs); err != nil {
		t.Fatal(err)
	}
	const routes, measured = 3, 10

	// program routes the instance `routes` times over one session, noting
	// (at node 0) the rounds the last Route starts and ends in.
	var lastStart, lastEnd, collectRounds int
	program := func(outs [][][]Token) sim.StepFactory {
		return func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			sp := specs[id]
			var sm *SessionMachine
			var rm *RouteMachine
			phases := []func(*sim.Env) sim.StepProgram{func(env *sim.Env) sim.StepProgram {
				sm = NewSessionMachine(env, sp.InS, sp.InR, sp.KS, sp.KR, sp.PS, sp.PR, Params{})
				return sm
			}}
			for r := 0; r < routes; r++ {
				phases = append(phases, func(env *sim.Env) sim.StepProgram {
					if id == 0 {
						lastStart = env.Round()
						collectRounds = 4 * sm.Out.famR.mu * sim.Log2Ceil(env.N())
					}
					rm = NewRouteMachine(sm.Out, sp.Send, sp.Expect)
					return rm
				}, sim.Finish(func(env *sim.Env) {
					outs[r][id] = rm.Out
					lastEnd = env.Round()
				}))
			}
			return sim.Sequence(phases...)
		}
	}
	newOuts := func() [][][]Token {
		outs := make([][][]Token, routes)
		for r := range outs {
			outs[r] = make([][]Token, g.N())
		}
		return outs
	}
	cfg := sim.Config{Engine: sim.EngineStep, Shards: 1, Seed: 9}
	outs := newOuts()
	if _, err := sim.RunStep(g, cfg, program(outs)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < routes; r++ {
		if !reflect.DeepEqual(outs[r], outs[0]) {
			t.Fatalf("Route %d on the reused session delivered other tokens than the first", r+1)
		}
	}
	start, collectStart := lastStart, lastEnd-collectRounds
	if start <= 0 || collectStart <= start+measured {
		t.Fatalf("third Route spans rounds %d..%d with a %d-round collect flood; no window to measure", start, lastEnd, collectRounds)
	}

	st, err := sim.NewStepper(g, cfg, program(newOuts()))
	if err != nil {
		t.Fatal(err)
	}
	// The round a flood starts in builds its machine (and allocates); the
	// window opens on the round after.
	at := 0
	for _, window := range []struct {
		name  string
		round int
	}{{"spread", start + 1}, {"collect", collectStart + 1}} {
		if st.Advance(window.round - at) {
			t.Fatalf("run finished before the %s window", window.name)
		}
		// AllocsPerRun calls the body once more than it measures.
		allocs := testing.AllocsPerRun(measured-1, func() { st.Advance(1) })
		at = window.round + measured
		if allocs != 0 {
			t.Errorf("%s flood: got %v allocs/round in rounds %d..%d of the third Route, want 0",
				window.name, allocs, window.round-start, at-start)
		}
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}
