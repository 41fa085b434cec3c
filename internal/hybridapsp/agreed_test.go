package hybridapsp

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ncc"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// TestAgreedPublishSharesSkeletonAPSP: after the publish phase of an n = 256
// APSP every node holds the skeleton's member list, rank map and distance
// matrix, and on a single shard node 0 and node n-1 hold the same ones; with
// more shards there are at most as many copies, all equal.
func TestAgreedPublishSharesSkeletonAPSP(t *testing.T) {
	g := graph.Grid(16, 16)
	n := g.N()
	sp := Params{}.skeletonParams(theorem11X)
	for _, shards := range []int{1, 4} {
		pubs := make([]*publishMachine, n)
		_, err := sim.RunStep(g, sim.Config{Seed: 3, Shards: shards}, func(env *sim.Env) sim.StepProgram {
			skelM := skeleton.NewComputeMachine(env, sp, false)
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return skelM },
				func(env *sim.Env) sim.StepProgram {
					pubs[env.ID()] = newPublishMachine(env, skelM.Res)
					return pubs[env.ID()]
				})
		})
		if err != nil {
			t.Fatal(err)
		}
		copies := map[*skeletonAPSP]bool{}
		for id, pm := range pubs {
			if len(pm.Members) == 0 || len(pm.DS) != len(pm.Members) || len(pm.Rank) != len(pm.Members) {
				t.Fatalf("%d shards: node %d: %d members, %d rows, %d ranks", shards, id, len(pm.Members), len(pm.DS), len(pm.Rank))
			}
			if !reflect.DeepEqual(pm.skeletonAPSP, pubs[0].skeletonAPSP) {
				t.Fatalf("%d shards: node %d and node 0 solved different skeletons", shards, id)
			}
			copies[pm.skeletonAPSP] = true
		}
		if len(copies) > shards {
			t.Errorf("%d shards: %d copies of the skeleton APSP", shards, len(copies))
		}
		if a, b := pubs[0], pubs[n-1]; shards == 1 && (&a.DS[0] != &b.DS[0] || &a.Members[0] != &b.Members[0]) {
			t.Error("node 0 and node n-1 hold separate copies")
		}
	}
}

// TestAgreedPublishFollowsTheTokens forces disagreement on the published edge
// set (node 0 announces more edges than the declared per-node bound lets it
// balance, so most of them never leave its flood radius on the path): node by
// node, what publish derives is exactly skeletonAPSPFromTokens of the node's
// own list.
func TestAgreedPublishFollowsTheTokens(t *testing.T) {
	g := graph.Path(128)
	const edges = 30
	mine := func(id int) []ncc.Token {
		if id%4 != 0 {
			return nil
		}
		out := []ncc.Token{{A: int64(id), B: int64(id)}} // member marker
		if id == 0 {
			for i := 1; i <= edges; i++ {
				out = append(out, ncc.Token{A: 0, B: int64(4 * i), C: int64(i)})
			}
		}
		return out
	}
	for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
		got := make([]*skeletonAPSP, g.N())
		tokens := make([][]ncc.Token, g.N())
		_, err := sim.RunStep(g, sim.Config{Seed: 2, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			diss := ncc.NewDisseminateMachine(env, mine(env.ID()), g.N()/4+edges, 1, ncc.DisseminateParams{})
			return sim.Then(diss, func(env *sim.Env) {
				tokens[env.ID()] = diss.Out
				got[env.ID()] = ncc.Derived(env, skeletonAPSPKey{}, diss.Out, skeletonAPSPFromTokens)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		views := map[int]bool{}
		for id := range got {
			if want := skeletonAPSPFromTokens(tokens[id]); !reflect.DeepEqual(got[id], want) {
				t.Fatalf("%s: node %d: derived %d members from %d tokens, alone it derives %d", eng, id, len(got[id].Members), len(tokens[id]), len(want.Members))
			}
			views[len(tokens[id])] = true
		}
		if len(views) < 2 {
			t.Fatalf("%s: every node received %v tokens: the instance forces no disagreement", eng, views)
		}
	}
}
