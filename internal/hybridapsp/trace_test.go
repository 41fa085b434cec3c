package hybridapsp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// pinnedAPSP holds an APSP machine, on every engine, to the trace recorded
// from the blocking form it replaced, and its output to sequential ground
// truth.
func pinnedAPSP(t *testing.T, g *graph.Graph, seed int64, pin simtest.Pin, machine sim.Pipeline[[]int64]) {
	t.Helper()
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
		Pipeline(Params{}))
}

// TestBaselineComputeMachineMatches covers the [3] baseline.
func TestBaselineComputeMachineMatches(t *testing.T) {
	g := graph.Path(30)
	pinnedAPSP(t, g, 29, simtest.Pin{Metrics: sim.Metrics{Rounds: 638, GlobalMsgs: 2185, GlobalBits: 100510, LocalMsgs: 1700, LocalBits: 82650, MaxGlobalSend: 5, MaxGlobalRecv: 11}, Sum: 0x5500c75075150ae5},
		BaselinePipeline(Params{}))
}

// TestLocalComputeMachineMatches covers the LOCAL baseline (10 rounds cover
// the 5x5 grid's hop diameter of 8).
func TestLocalComputeMachineMatches(t *testing.T) {
	g := graph.Grid(5, 5)
	pinnedAPSP(t, g, 31, simtest.Pin{Metrics: sim.Metrics{Rounds: 10, LocalMsgs: 576, LocalBits: 30000}, Sum: 0xe4b2a7c87d49d1bc},
		LocalPipeline(10))
}
