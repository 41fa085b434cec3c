package hybridapsp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// pinnedAPSP holds an APSP machine to the trace of the blocking form it
// replaced (oracle), on every engine, and its output to sequential ground
// truth.
func pinnedAPSP(t *testing.T, g *graph.Graph, seed int64, pin simtest.Pin,
	oracle func(*sim.Env) []int64,
	machine func(*sim.Env, func([]int64)) sim.StepProgram) {
	t.Helper()
	simtest.Blocking(t, "apsp", g, seed, pin, func(env *sim.Env, emit func(...int64)) { emit(oracle(env)...) })
	got := make([][]int64, g.N())
	simtest.Machines(t, "apsp", g, seed, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		id := env.ID()
		return machine(env, func(out []int64) {
			got[id] = out
			emit(out...)
		})
	})
	if !reflect.DeepEqual(got, graph.APSP(g)) {
		t.Error("distances differ from sequential APSP")
	}
}

// TestComputeMachineMatches covers Theorem 1.1.
func TestComputeMachineMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.WithRandomWeights(graph.Grid(6, 6), 4, rng)
	pinnedAPSP(t, g, 23, simtest.Pin{Metrics: sim.Metrics{Rounds: 1340, GlobalMsgs: 4260, GlobalBits: 221520, LocalMsgs: 9972, LocalBits: 3910464, MaxGlobalSend: 6, MaxGlobalRecv: 13}, Sum: 0xeaea7c46c4250465},
		func(env *sim.Env) []int64 { return Compute(env, Params{}) },
		func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return NewComputeMachine(env, Params{}, done)
		})
}

// TestBaselineComputeMachineMatches covers the [3] baseline.
func TestBaselineComputeMachineMatches(t *testing.T) {
	g := graph.Path(30)
	pinnedAPSP(t, g, 29, simtest.Pin{Metrics: sim.Metrics{Rounds: 638, GlobalMsgs: 2185, GlobalBits: 100510, LocalMsgs: 1700, LocalBits: 82650, MaxGlobalSend: 5, MaxGlobalRecv: 11}, Sum: 0x5500c75075150ae5},
		func(env *sim.Env) []int64 { return BaselineCompute(env, Params{}) },
		func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return NewBaselineComputeMachine(env, Params{}, done)
		})
}

// TestLocalComputeMachineMatches covers the LOCAL baseline (10 rounds cover
// the 5x5 grid's hop diameter of 8).
func TestLocalComputeMachineMatches(t *testing.T) {
	g := graph.Grid(5, 5)
	pinnedAPSP(t, g, 31, simtest.Pin{Metrics: sim.Metrics{Rounds: 10, LocalMsgs: 576, LocalBits: 30000}, Sum: 0xe4b2a7c87d49d1bc},
		func(env *sim.Env) []int64 { return LocalCompute(env, 10) },
		func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return NewLocalComputeMachine(env, 10, done)
		})
}
