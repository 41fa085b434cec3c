package cliquesim

import (
	"math/rand"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// simulation is the machine every test of this package runs: skeleton
// construction, then the CLIQUE simulation on it. done receives both
// results.
func simulation(env *sim.Env, sp skeleton.Params, factory Factory, rp routing.Params, done func(skeleton.Result, Result)) sim.StepProgram {
	var skelM *skeleton.ComputeMachine
	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, false)
			return skelM
		},
		func(env *sim.Env) sim.StepProgram {
			skel := skelM.Res
			return NewSimulateMachine(env, skel, sp.SampleProb(env.N()), factory, rp,
				func(r Result) { done(skel, r) })
		},
	)
}

// runSim executes skeleton construction + CLIQUE simulation on g.
func runSim(t *testing.T, g *graph.Graph, sp skeleton.Params, factory Factory, seed int64) ([]Result, []skeleton.Result, sim.Metrics) {
	t.Helper()
	n := g.N()
	results := make([]Result, n)
	skels := make([]skeleton.Result, n)
	m, err := sim.RunStep(g, sim.Config{Seed: seed}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		return simulation(env, sp, factory, routing.Params{}, func(skel skeleton.Result, r Result) {
			skels[id], results[id] = skel, r
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, skels, m
}

func TestMembersAgree(t *testing.T) {
	g := graph.Grid(8, 8)
	results, skels, _ := runSim(t, g, skeleton.Params{X: 0.5},
		SharedFactory(func(q int, _ []int) clique.Algorithm {
			return clique.NewOracle(q, nil, clique.CostModel{Eta: 1}, clique.Quality{Alpha: 1}, false)
		}), 3)
	want := results[0].Members
	if len(want) == 0 {
		t.Fatal("empty skeleton")
	}
	for v := 1; v < g.N(); v++ {
		got := results[v].Members
		if len(got) != len(want) {
			t.Fatalf("node %d sees %d members, node 0 sees %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("member lists diverge at %d", i)
			}
		}
	}
	for i, id := range want {
		if !skels[id].InSkeleton {
			t.Fatalf("member %d not actually in skeleton", id)
		}
		if results[id].Index != i {
			t.Fatalf("member %d has index %d, want %d", id, results[id].Index, i)
		}
		if results[id].Node == nil {
			t.Fatalf("member %d has no node state", id)
		}
	}
	for v := 0; v < g.N(); v++ {
		if !skels[v].InSkeleton && (results[v].Index != -1 || results[v].Node != nil) {
			t.Fatalf("non-member %d has clique state", v)
		}
	}
}

func TestSimulatedMMMatchesGroundTruth(t *testing.T) {
	// APSP on the skeleton via simulated MM must equal d_G between skeleton
	// nodes (Lemma C.2 + exact MM).
	rng := rand.New(rand.NewSource(5))
	g := graph.WithRandomWeights(graph.Grid(8, 8), 5, rng)
	sp := skeleton.Params{X: 2.0 / 3.0}
	results, _, _ := runSim(t, g, sp,
		SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, false) }), 7)

	members := results[0].Members
	for i, id := range members {
		node := results[id].Node.(clique.DistanceNode)
		got := node.Distances()
		want := graph.Dijkstra(g, id)
		for j, jd := range members {
			if got[j] != want[jd] {
				t.Fatalf("simulated d(%d,%d) = %d, want %d (member indices %d,%d)",
					id, jd, got[j], want[jd], i, j)
			}
		}
	}
}

func TestSimulatedOracle(t *testing.T) {
	g := graph.Grid(7, 7)
	sp := skeleton.Params{X: 0.6}
	factory := SharedFactory(func(q int, _ []int) clique.Algorithm {
		return clique.NewOracle(q, nil, clique.CostModel{Delta: 0, Eta: 2}, clique.Quality{Alpha: 1}, true)
	})
	results, _, _ := runSim(t, g, sp, factory, 13)
	members := results[0].Members
	for _, id := range members {
		got := results[id].Node.(clique.DistanceNode).Distances()
		want := graph.Dijkstra(g, id)
		for j, jd := range members {
			if got[j] != want[jd] {
				t.Fatalf("oracle d(%d,%d) = %d, want %d", id, jd, got[j], want[jd])
			}
		}
	}
	// Diameter of the skeleton = max pairwise distance among members.
	var maxD int64
	for _, id := range members {
		d := graph.Dijkstra(g, id)
		for _, jd := range members {
			if d[jd] > maxD {
				maxD = d[jd]
			}
		}
	}
	for _, id := range members {
		if got := results[id].Node.(clique.DiameterNode).Diameter(); got != maxD {
			t.Fatalf("oracle diameter at %d = %d, want %d", id, got, maxD)
		}
	}
}

func TestOracleChargesDeclaredRounds(t *testing.T) {
	// The simulation with a TA-round oracle must take more rounds than one
	// with a 1-round oracle, and both must be dominated by routing costs.
	g := graph.Grid(6, 6)
	sp := skeleton.Params{X: 0.5}
	mk := func(ta float64) Factory {
		return SharedFactory(func(q int, _ []int) clique.Algorithm {
			return clique.NewOracle(q, nil, clique.CostModel{Delta: 0, Eta: ta}, clique.Quality{Alpha: 1}, false)
		})
	}
	_, _, m1 := runSim(t, g, sp, mk(1), 17)
	_, _, m5 := runSim(t, g, sp, mk(5), 17)
	if m5.Rounds <= m1.Rounds {
		t.Fatalf("5-round oracle (%d HYBRID rounds) not costlier than 1-round oracle (%d)", m5.Rounds, m1.Rounds)
	}
}

func TestSharedFactoryReturnsSameInstance(t *testing.T) {
	calls := 0
	f := SharedFactory(func(q int, _ []int) clique.Algorithm {
		calls++
		return clique.NewMM(q, false)
	})
	a := f(5, nil)
	b := f(5, nil)
	if a != b {
		t.Fatal("SharedFactory returned distinct instances")
	}
	if calls != 1 {
		t.Fatalf("factory called %d times, want 1", calls)
	}
}
