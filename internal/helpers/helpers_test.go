package helpers

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// runCompute executes Algorithm 1 on g for the given W.
func runCompute(t *testing.T, g *graph.Graph, inW []bool, mu int, seed int64) []Result {
	t.Helper()
	results, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, Pipeline(inW, mu, Params{}))
	if err != nil {
		t.Fatal(err)
	}
	if want := Rounds(g.N(), mu); m.Rounds != want {
		t.Fatalf("Algorithm 1 took %d rounds, want exactly %d", m.Rounds, want)
	}
	if m.GlobalMsgs != 0 {
		t.Fatalf("Algorithm 1 used %d global messages; it is local-only", m.GlobalMsgs)
	}
	return results
}

func sampleW(n int, p float64, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	w := make([]bool, n)
	for i := range w {
		w[i] = rng.Float64() < p
	}
	return w
}

func TestClusterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name string
		g    *graph.Graph
		mu   int
	}{
		{"path", graph.Path(50), 2},
		{"grid", graph.Grid(8, 8), 2},
		{"sparse", graph.SparseConnected(60, 1, rng), 2},
		{"cycle", graph.Cycle(48), 3},
		{"barbell", graph.Barbell(12, 16), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inW := sampleW(tt.g.N(), 0.3, 7)
			results := runCompute(t, tt.g, inW, tt.mu, 11)
			if err := ClusterCheck(tt.g, results, tt.mu); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterMembersConsistent(t *testing.T) {
	g := graph.Grid(6, 6)
	inW := sampleW(g.N(), 0.25, 5)
	results := runCompute(t, g, inW, 2, 13)

	// Group truth: members by ruler.
	byRuler := map[int][]int{}
	for v, r := range results {
		byRuler[r.Ruler] = append(byRuler[r.Ruler], v)
	}
	for v, r := range results {
		want := byRuler[r.Ruler]
		if len(r.Members) != len(want) {
			t.Fatalf("node %d sees %d cluster members, want %d", v, len(r.Members), len(want))
		}
		seen := map[int]bool{}
		for _, m := range r.Members {
			seen[m] = true
		}
		for _, m := range want {
			if !seen[m] {
				t.Fatalf("node %d missing cluster member %d", v, m)
			}
		}
		// WMembers must be exactly the W-flagged members.
		wCount := 0
		for _, m := range want {
			if inW[m] {
				wCount++
			}
		}
		if len(r.WMembers) != wCount {
			t.Fatalf("node %d sees %d W-members, want %d", v, len(r.WMembers), wCount)
		}
	}
}

func TestHelperFamilyProperties(t *testing.T) {
	// Definition 2.1 on a workload that mirrors the token-routing usage:
	// W sampled with probability p = n^-0.5, µ = min(sqrt(k), 1/p).
	rng := rand.New(rand.NewSource(9))
	g := graph.SparseConnected(144, 1.5, rng)
	n := g.N()
	p := 1.0 / 12.0 // n^-0.5 for n=144
	inW := sampleW(n, p, 21)
	mu := 3 // min(sqrt(k)~3, 1/p=12)
	results := runCompute(t, g, inW, mu, 23)
	if err := CheckFamily(g, results, mu, 6, 6); err != nil {
		t.Fatal(err)
	}
}

func TestHelperFamilyOnGrid(t *testing.T) {
	g := graph.Grid(12, 12)
	inW := sampleW(g.N(), 0.1, 31)
	results := runCompute(t, g, inW, 2, 33)
	if err := CheckFamily(g, results, 2, 6, 6); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyW(t *testing.T) {
	g := graph.Path(30)
	inW := make([]bool, 30)
	results := runCompute(t, g, inW, 2, 41)
	for v, r := range results {
		if len(r.Helps) != 0 || len(r.WMembers) != 0 {
			t.Fatalf("node %d has helper state despite empty W: %+v", v, r)
		}
	}
}

func TestAllNodesInW(t *testing.T) {
	// Degenerate p = 1: everything still validates with a generous load cap
	// (each node helps O(µ·|W∩C|/|C|) = O(µ) sets here).
	g := graph.Grid(5, 5)
	inW := make([]bool, g.N())
	for i := range inW {
		inW[i] = true
	}
	results := runCompute(t, g, inW, 1, 43)
	if err := ClusterCheck(g, results, 1); err != nil {
		t.Fatal(err)
	}
	// Property 1 must still hold.
	hw := map[int]int{}
	for _, r := range results {
		for _, w := range r.Helps {
			hw[w]++
		}
	}
	for w := range inW {
		if hw[w] < 1 {
			t.Fatalf("node %d in W has %d helpers, want >= µ = 1", w, hw[w])
		}
	}
}

func TestHelpersAreClusterLocal(t *testing.T) {
	g := graph.Grid(7, 7)
	inW := sampleW(g.N(), 0.2, 51)
	results := runCompute(t, g, inW, 2, 53)
	for v, r := range results {
		for _, w := range r.Helps {
			if results[w].Ruler != r.Ruler {
				t.Fatalf("node %d (cluster %d) helps %d (cluster %d)", v, r.Ruler, w, results[w].Ruler)
			}
		}
	}
}

func TestRoundsFormula(t *testing.T) {
	// Rounds = ruling (2µ logN) + β + 2β with β = 2µ logN => 8µ logN total.
	n, mu := 64, 2
	logN := sim.Log2Ceil(n)
	if got, want := Rounds(n, mu), 8*mu*logN; got != want {
		t.Fatalf("Rounds(%d,%d) = %d, want %d", n, mu, got, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.Grid(6, 6)
	inW := sampleW(g.N(), 0.3, 61)
	a := runCompute(t, g, inW, 2, 63)
	b := runCompute(t, g, inW, 2, 63)
	for v := range a {
		if a[v].Ruler != b[v].Ruler || len(a[v].Helps) != len(b[v].Helps) {
			t.Fatalf("node %d results differ between identical runs", v)
		}
		for i := range a[v].Helps {
			if a[v].Helps[i] != b[v].Helps[i] {
				t.Fatalf("node %d helper list differs between identical runs", v)
			}
		}
	}
}

// TestAgreedClusterListsFollowTheFlood: two families built in one run over the
// same clustering (same µ) but different W present the same member flood and
// different W floods under the same cluster key. Every node must get its own
// family's W members, cold and on a cluster-cache hit, and a cluster's members
// share one member list and one W list.
func TestAgreedClusterListsFollowTheFlood(t *testing.T) {
	g := graph.Grid(12, 12)
	n := g.N()
	inW := [2]func(id int) bool{
		func(id int) bool { return id%2 == 0 },
		func(id int) bool { return id%3 == 0 },
	}
	for _, eng := range simtest.Engines {
		params := Params{Clusters: NewClusterCache()}
		for _, run := range []string{"cache miss", "cache hit", "uncached"} {
			if run == "uncached" {
				params = Params{}
			}
			var res [2][]Result
			res[0], res[1] = make([]Result, n), make([]Result, n)
			_, err := sim.RunStep(g, sim.Config{Seed: 6, Engine: eng, Shards: 1}, func(env *sim.Env) sim.StepProgram {
				id := env.ID()
				var m *Machine
				build := func(i int) func(*sim.Env) sim.StepProgram {
					return func(env *sim.Env) sim.StepProgram {
						m = NewMachine(env, inW[i](id), 1, params)
						return m
					}
				}
				return sim.Sequence(
					build(0), sim.Finish(func(*sim.Env) { res[0][id] = m.Res }),
					build(1), sim.Finish(func(*sim.Env) { res[1][id] = m.Res }),
				)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ClusterCheck(g, res[1], 1); err != nil {
				t.Fatalf("%s, %s: %v", eng, run, err)
			}
			for i := range res {
				for id, r := range res[i] {
					var want []int
					for _, v := range r.Members {
						if inW[i](v) {
							want = append(want, v)
						}
					}
					if !slices.Equal(r.WMembers, want) {
						t.Fatalf("%s, %s: family %d node %d: W members %v, want %v", eng, run, i, id, r.WMembers, want)
					}
					// One shard steps the nodes one after the other, so each
					// list is made once per cluster.
					ruler := res[i][r.Ruler]
					if eng == sim.EngineStep && (&r.Members[0] != &ruler.Members[0] || len(want) > 0 && &r.WMembers[0] != &ruler.WMembers[0]) {
						t.Errorf("%s: family %d node %d: its cluster lists are copies of its ruler's", run, i, id)
					}
				}
			}
		}
	}
}
