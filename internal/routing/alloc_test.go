package routing

import (
	"reflect"
	"runtime"
	"runtime/debug"
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
	var last routeSpan
	cfg := sim.Config{Engine: sim.EngineStep, Shards: 1, Seed: 9}
	outs := newRouteOuts(routes, g.N())
	if _, err := sim.RunStep(g, cfg, routeOver(specs, repeat(specs, routes), outs, &last)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < routes; r++ {
		if !reflect.DeepEqual(outs[r], outs[0]) {
			t.Fatalf("Route %d on the reused session delivered other tokens than the first", r+1)
		}
	}
	start, collectStart := last.start, last.end-last.collectRounds
	if start <= 0 || collectStart <= start+measured {
		t.Fatalf("third Route spans rounds %d..%d with a %d-round collect flood; no window to measure", start, last.end, last.collectRounds)
	}

	st, err := sim.NewStepper(g, cfg, routeOver(specs, repeat(specs, routes), newRouteOuts(routes, g.N()), nil))
	if err != nil {
		t.Fatal(err)
	}
	// The round a flood starts in is a phase hand-off (TestRouteInstanceZeroAlloc
	// covers those); the window opens on the round after.
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

// routeSpan is where, at node 0, the last of a run's routes starts and ends,
// and how long its collect flood is.
type routeSpan struct{ start, end, collectRounds int }

// newRouteOuts makes room for every node's Out of every route.
func newRouteOuts(routes, n int) [][][]Token {
	outs := make([][][]Token, routes)
	for r := range outs {
		outs[r] = make([][]Token, n)
	}
	return outs
}

// repeat lists one instance k times.
func repeat(specs []Spec, k int) [][]Spec {
	insts := make([][]Spec, k)
	for i := range insts {
		insts[i] = specs
	}
	return insts
}

// routeOver builds one session for the sender and receiver sets of session
// and routes the instances over it, one after another, keeping each one's
// Out in outs and, if last is non-nil, noting the last one's span there.
func routeOver(session []Spec, insts [][]Spec, outs [][][]Token, last *routeSpan) sim.StepFactory {
	return func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		sp := session[id]
		var sm *SessionMachine
		var rm *RouteMachine
		phases := []func(*sim.Env) sim.StepProgram{func(env *sim.Env) sim.StepProgram {
			sm = NewSessionMachine(env, sp.InS, sp.InR, sp.KS, sp.KR, sp.PS, sp.PR, Params{})
			return sm
		}}
		for k, inst := range insts {
			phases = append(phases, func(env *sim.Env) sim.StepProgram {
				if id == 0 && last != nil {
					last.start = env.Round()
					last.collectRounds = 4 * sm.Out.famR.mu * sim.Log2Ceil(env.N())
				}
				rm = NewRouteMachine(sm.Out, inst[id].Send, inst[id].Expect)
				return rm
			}, sim.Finish(func(env *sim.Env) {
				outs[k][id] = rm.Out
				if id == 0 && last != nil {
					last.end = env.Round()
				}
			}))
		}
		return sim.Sequence(phases...)
	}
}

// TestRouteInstanceZeroAlloc is the gate of the session-owned RouteMachine:
// once a Session has routed an instance twice, every round of the third —
// the spreads, the aggregations, the push, request and drain loops, the
// collect flood and the round segments that hand one phase to the next —
// allocates nothing, but for its first round (where the caller arms it) and
// its last, which allocates at most each node's fresh Out. The machine, its
// loops and aggregation, the token batches, helper shares, reply queue and
// gathered answers are the session's and are re-armed, not rebuilt.
func TestRouteInstanceZeroAlloc(t *testing.T) {
	g := graph.Grid(8, 8)
	n := g.N()
	specs := buildInstance(n, 0.5, 0.5, 3, 4)
	const routes = 3
	cfg := sim.Config{Engine: sim.EngineStep, Shards: 1, Seed: 9}
	var last routeSpan
	if _, err := sim.RunStep(g, cfg, routeOver(specs, repeat(specs, routes), newRouteOuts(routes, n), &last)); err != nil {
		t.Fatal(err)
	}
	if last.start <= 0 || last.end <= last.start+1 {
		t.Fatalf("third Route spans rounds %d..%d; no window to measure", last.start, last.end)
	}

	// MemStats counts the whole process. A GC cycle that ends inside the
	// window wakes the runtime's cleanup of package unique's maps, which
	// allocates two objects on its own goroutine (about one run in forty);
	// with the collector held off, no cycle the set-up below starts can end
	// there.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st, err := sim.NewStepper(g, cfg, routeOver(specs, repeat(specs, routes), newRouteOuts(routes, n), nil))
	if err != nil {
		t.Fatal(err)
	}
	// The engine runs the machines on this goroutine (one shard); keep the
	// runtime's own goroutines off the count, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	advance := func() uint64 {
		runtime.ReadMemStats(&before)
		st.Advance(1)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if st.Advance(last.start + 1) {
		t.Fatal("run finished before the third Route")
	}
	for round := last.start + 1; round < last.end; round++ {
		if allocs := advance(); allocs != 0 {
			t.Errorf("round %d of the third Route (rounds %d..%d): %d allocs, want 0", round-last.start, 0, last.end-last.start, allocs)
		}
	}
	if allocs := advance(); allocs > uint64(n) {
		t.Errorf("the third Route's last round: %d allocs, want at most one per node (%d)", allocs, n)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}
