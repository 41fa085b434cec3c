package helpers

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// words flattens a Result for the pinned hash.
func (r Result) words() []int64 {
	w := []int64{int64(r.Ruler), int64(r.RulerDist), simtest.Bool(r.InW), int64(r.Mu)}
	w = append(w, simtest.Ints(r.Members)...)
	w = append(w, simtest.Ints(r.WMembers)...)
	return append(w, simtest.Ints(r.Helps)...)
}

// TestMachineMatchesPin holds the Algorithm 1 machine, on every engine,
// to the trace pinned from the blocking Compute it replaced — uncached,
// populating a cluster cache, and bound from it — and checks the family it
// builds.
func TestMachineMatchesPin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.SparseConnected(60, 1.2, rng)
	inW := make([]bool, g.N())
	for i := range inW {
		inW[i] = rng.Float64() < 0.25
	}
	const mu = 3
	pins := map[string]simtest.Pin{
		"uncached":   {Metrics: sim.Metrics{Rounds: 144, LocalMsgs: 3189, LocalBits: 196608}, Sum: 0xca7d4d8d5fd620d0},
		"cache miss": {Metrics: sim.Metrics{Rounds: 156, GlobalMsgs: 118, GlobalBits: 6136, LocalMsgs: 3189, LocalBits: 196608, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0xca7d4d8d5fd620d0},
		"cache hit":  {Metrics: sim.Metrics{Rounds: 84, GlobalMsgs: 118, GlobalBits: 6136, LocalMsgs: 1082, LocalBits: 64512, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0xca7d4d8d5fd620d0},
	}

	results := make([]Result, g.N())
	machine := func(p Params) simtest.Factory {
		return func(env *sim.Env, emit func(...int64)) sim.StepProgram {
			m := NewMachine(env, inW[env.ID()], mu, p)
			return sim.Then(m, func(env *sim.Env) {
				results[env.ID()] = m.Res
				emit(m.Res.words()...)
			})
		}
	}
	for _, eng := range simtest.Engines {
		simtest.Run(t, "uncached", g, eng, 9, pins["uncached"], machine(Params{}))
		cached := Params{Clusters: NewClusterCache()}
		simtest.Run(t, "cache miss", g, eng, 9, pins["cache miss"], machine(cached))
		simtest.Run(t, "cache hit", g, eng, 9, pins["cache hit"], machine(cached))
		if err := ClusterCheck(g, results, mu); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
		if err := CheckFamily(g, results, mu, 6, 6); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
	}
}
