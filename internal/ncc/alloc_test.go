package ncc

import (
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestDisseminateFloodRoundsZeroAlloc is the memory-discipline gate of
// Phase 3: its flood is a flood.State, whose delta pair is the node's and
// outlives the machine, so once a node has disseminated, the Phase 3 rounds
// of a second dissemination of the same shape allocate nothing. A batch
// slice grown from nil per machine, or a payload boxed by value, would show
// up here as a nonzero count. The window is every Phase 3 round but the
// first, which arms the flood, and the last, which hands out Out.
func TestDisseminateFloodRoundsZeroAlloc(t *testing.T) {
	g := graph.Path(24)
	const ell = 16
	k := g.N() * ell
	r := isqrt(k) // Phase 3's length: k is large against log² n
	cfg := sim.Config{Engine: sim.EngineStep, Shards: 1, Seed: 3}
	// twice disseminates two token sets of one shape in a row; at node 0 it
	// records the round the second starts in and the first round after that
	// with a local delivery, which is Phase 3's second.
	twice := func(second, heard *int) sim.StepFactory {
		return func(env *sim.Env) sim.StepProgram {
			diss := func(run int) func(*sim.Env) sim.StepProgram {
				return func(env *sim.Env) sim.StepProgram {
					if run == 1 && env.ID() == 0 {
						*second = env.Round()
					}
					return NewDisseminateMachine(env, runTokens(env.ID(), run, ell), k, ell, DisseminateParams{})
				}
			}
			inner := sim.Sequence(diss(0), diss(1))
			return sim.StepFunc(func(env *sim.Env) bool {
				if env.ID() == 0 && *second > 0 && *heard == 0 && len(env.Incoming().Local) > 0 {
					*heard = env.Round()
				}
				return inner.Step(env)
			})
		}
	}
	var second, heard int
	if _, err := sim.RunStep(g, cfg, twice(&second, &heard)); err != nil {
		t.Fatal(err)
	}
	if second == 0 || heard == 0 {
		t.Fatalf("second dissemination started in round %d, first local delivery after it in round %d", second, heard)
	}

	// As in routing's TestRouteInstanceZeroAlloc: a GC cycle ending in the
	// window can allocate on the runtime's own account.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var s2, h2 int
	st, err := sim.NewStepper(g, cfg, twice(&s2, &h2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Advance(heard - 1) {
		t.Fatal("run finished before the second dissemination's Phase 3")
	}
	// AllocsPerRun calls the body once more than it measures: the round the
	// flood starts in, then its rounds 1..r-1.
	if allocs := testing.AllocsPerRun(r-1, func() { st.Advance(1) }); allocs != 0 {
		t.Errorf("got %v allocs/round in Phase 3 rounds 1..%d of the second dissemination, want 0", allocs, r-1)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}
