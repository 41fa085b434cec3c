package diameter

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// pinnedDiameter holds a diameter machine, on every engine, to the trace
// recorded from the blocking form it replaced: every node's estimate,
// hashed, and the common estimate within [d, bound·d] of the true diameter d.
func pinnedDiameter(t *testing.T, g *graph.Graph, seed int64, pin simtest.Pin, d int64, bound float64, machine sim.Pipeline[int64]) {
	t.Helper()
	var est int64
	simtest.Machines(t, "diameter", g, seed, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		id := env.ID()
		return machine(env, func(e int64) {
			if id == 0 {
				est = e
			}
			emit(e)
		})
	})
	if est < d || float64(est) > bound*float64(d) {
		t.Errorf("estimate %d outside [%d, %g·%d]", est, d, bound, d)
	}
}

func pinnedHopDiameter(t *testing.T, g *graph.Graph, spec kssp.AlgSpec, seed int64, bound float64, pin simtest.Pin) {
	t.Helper()
	pinnedDiameter(t, g, seed, pin, graph.HopDiameter(g), bound, Pipeline(spec, kssp.Params{}))
}

// TestComputeMachineMatchesOracle covers the declared-cost oracle path
// (Corollary 5.2: 3/2+ε, plus the 2/η exploration slack).
func TestComputeMachineMatchesOracle(t *testing.T) {
	pinnedHopDiameter(t, graph.Grid(6, 6), Corollary52(0.5, 0), 43, 3,
		simtest.Pin{Metrics: sim.Metrics{Rounds: 1378, GlobalMsgs: 1313, GlobalBits: 68276, LocalMsgs: 10314, LocalBits: 363396, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x4dc5d298fe5428a5})
}

// TestComputeMachineMatchesRealMM covers the real-message exact skeleton
// diameter (δ = 1/3: 1+2/η at η = 2).
func TestComputeMachineMatchesRealMM(t *testing.T) {
	pinnedHopDiameter(t, graph.Cycle(30), RealMM(2), 47, 2,
		simtest.Pin{Metrics: sim.Metrics{Rounds: 1747, GlobalMsgs: 2282, GlobalBits: 104972, LocalMsgs: 5042, LocalBits: 123470, MaxGlobalSend: 5, MaxGlobalRecv: 5}, Sum: 0xfc0c753f685d8f65})
}

// TestWeightedApproxMachineMatches covers the weighted factor-2 estimate.
func TestWeightedApproxMachineMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.WithRandomWeights(graph.Grid(5, 5), 5, rng)
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 1101, GlobalMsgs: 730, GlobalBits: 33580, LocalMsgs: 3982, LocalBits: 141655, MaxGlobalSend: 5, MaxGlobalRecv: 5}, Sum: 0x899e3a5e10cae7fa}
	pinnedDiameter(t, g, 53, pin, graph.WeightedDiameter(g), 2, WeightedApproxPipeline(kssp.Corollary49(), kssp.Params{}))
}
