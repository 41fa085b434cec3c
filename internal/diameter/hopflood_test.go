package diameter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/skeleton"
)

// TestHopFloodShardCountInvariance holds Algorithm 9's h_v flood to its
// definition on every engine at 1, 2 and 7 shards (dist workers): each
// node's h_v is its BFS eccentricity capped at the round count, weights or
// no weights. On an unweighted graph the flood also costs exactly what the
// dense all-sources exploration costs, whose largest first-arrival hop is
// the same h_v.
func TestHopFloodShardCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		weighted bool
	}{
		{"path30", graph.Path(30), false},
		{"cycle31", graph.Cycle(31), false},
		{"barbell6x9", graph.Barbell(6, 9), false},
		{"grid6x7", graph.Grid(6, 7), false},
		{"wgrid6x6", graph.WithRandomWeights(graph.Grid(6, 6), 9, rng), true},
	} {
		n := tc.g.N()
		ecc := make([]int32, n)
		for v := range n {
			ecc[v] = int32(slices.Max(graph.BFS(tc.g, v)))
		}
		for _, rounds := range []int{3, n} {
			name := fmt.Sprintf("%s rounds=%d", tc.name, rounds)
			hv := make([]int32, n)
			want, err := sim.RunStep(tc.g, sim.Config{Seed: 1}, func(env *sim.Env) sim.StepProgram {
				m := skeleton.NewExploreMachine(env, true, rounds)
				return sim.Then(m, func(env *sim.Env) { hv[env.ID()] = slices.Max(m.Hops) })
			})
			if err != nil {
				t.Fatalf("%s: exploration: %v", name, err)
			}
			for v := range n {
				if hv[v] != min(ecc[v], int32(rounds)) {
					t.Fatalf("%s: the exploration's h_%d = %d, want min(%d, %d)", name, v, hv[v], ecc[v], rounds)
				}
			}
			for _, eng := range simtest.Engines {
				for _, shards := range []int{1, 2, 7} {
					clear(hv)
					m, err := sim.RunStep(tc.g, sim.Config{Seed: 1, Engine: eng, Shards: shards, DistWorkers: shards},
						func(env *sim.Env) sim.StepProgram { return newHopFlood(env, rounds, &hv[env.ID()]) })
					if err != nil {
						t.Fatalf("%s on %s at %d shards: %v", name, eng, shards, err)
					}
					for v := range n {
						if hv[v] != min(ecc[v], int32(rounds)) {
							t.Fatalf("%s on %s at %d shards: h_%d = %d, want min(%d, %d)", name, eng, shards, v, hv[v], ecc[v], rounds)
						}
					}
					if !tc.weighted && m != want {
						t.Errorf("%s on %s at %d shards: metrics %+v, the exploration's %+v", name, eng, shards, m, want)
					}
				}
			}
		}
	}
}
