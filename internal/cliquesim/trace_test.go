package cliquesim

import (
	"reflect"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/skeleton"
)

// distill reduces a Result to comparable content: the shared index space
// and each member's final diameter answer (the factory below runs MM with
// the diameter tail).
func distill(results []Result) ([][]int, []int64) {
	members := make([][]int, len(results))
	diams := make([]int64, len(results))
	for v, r := range results {
		members[v] = r.Members
		diams[v] = -1
		if r.Node != nil {
			if dn, ok := r.Node.(clique.DiameterNode); ok {
				diams[v] = dn.Diameter()
			}
		}
	}
	return members, diams
}

// words flattens what distill compares for the pinned hash.
func (r Result) words() []int64 {
	w := simtest.Ints(r.Members)
	diam := int64(-1)
	if dn, ok := r.Node.(clique.DiameterNode); ok {
		diam = dn.Diameter()
	}
	return append(w, int64(r.Index), diam)
}

// TestSimulateMachineMatches holds the CLIQUE simulation (one
// SessionMachine, then a RouteMachine per simulated round), on every engine,
// to the trace recorded from the blocking Simulate it replaced, with real
// messages (semiring MM): every member must end with the skeleton's
// diameter.
func TestSimulateMachineMatches(t *testing.T) {
	g := graph.Grid(6, 6)
	sp := skeleton.Params{X: 0.6}
	n := g.N()
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 20450, GlobalMsgs: 36446, GlobalBits: 1895192, LocalMsgs: 123138, LocalBits: 61607304, MaxGlobalSend: 6, MaxGlobalRecv: 15}, Sum: 0x1b1e3e61d7ec7444}
	newFactory := func() Factory {
		return SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, true) })
	}

	for _, eng := range simtest.Engines {
		factory := newFactory()
		skels := make([]skeleton.Result, n)
		got := make([]Result, n)
		simtest.Run(t, "simulate", g, eng, 29, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
			id := env.ID()
			return simulation(env, sp, factory, routing.Params{}, func(skel skeleton.Result, r Result) {
				skels[id], got[id] = skel, r
				emit(r.words()...)
			})
		})
		s, _, err := skeleton.Build(skels)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.WeightedDiameter(s)
		_, diams := distill(got)
		for v, d := range diams {
			if skels[v].InSkeleton && d != want {
				t.Errorf("%s: member %d simulated diameter %d, skeleton diameter %d", eng, v, d, want)
			}
		}
	}
}

// TestSimulateMachineSessionCache runs the machine with a shared session
// cache across two runs: the second must reuse the session (fewer rounds)
// and still produce identical simulation output.
func TestSimulateMachineSessionCache(t *testing.T) {
	g := graph.Grid(6, 6)
	sp := skeleton.Params{X: 0.6}
	n := g.N()
	cache := routing.NewSessionCache()

	run := func() ([]Result, sim.Metrics) {
		got := make([]Result, n)
		factory := SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, true) })
		m, err := sim.RunStep(g, sim.Config{Seed: 29}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return simulation(env, sp, factory, routing.Params{Cache: cache}, func(_ skeleton.Result, r Result) { got[id] = r })
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, m
	}
	first, firstM := run()
	second, secondM := run()
	fm, fd := distill(first)
	sm, sd := distill(second)
	if !reflect.DeepEqual(fm, sm) || !reflect.DeepEqual(fd, sd) {
		t.Error("cached re-run changed simulation output")
	}
	if secondM.Rounds >= firstM.Rounds {
		t.Errorf("session cache saved nothing: %d rounds vs %d", secondM.Rounds, firstM.Rounds)
	}
}
