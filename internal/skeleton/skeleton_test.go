package skeleton

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

func runSkeleton(t *testing.T, g *graph.Graph, p Params, seed int64) []Result {
	t.Helper()
	results, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, Pipeline(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != p.H(g.N()) {
		t.Fatalf("Algorithm 6 took %d rounds, want exactly h = %d", m.Rounds, p.H(g.N()))
	}
	if m.GlobalMsgs != 0 {
		t.Fatalf("skeleton construction used %d global messages; Algorithm 6 is local-only", m.GlobalMsgs)
	}
	return results
}

func TestHFormula(t *testing.T) {
	p := Params{X: 2.0 / 3.0}
	// h = ceil(n^(1/3) * ln n), capped at n.
	if h := p.H(64); h < 8 || h > 64 {
		t.Fatalf("H(64) = %d out of sane range", h)
	}
	if h := (Params{X: 0.5, MaxH: 5}).H(1000); h != 5 {
		t.Fatalf("MaxH cap violated: %d", h)
	}
	if h := (Params{X: 1.0}).H(100); h < 1 {
		t.Fatalf("H must be >= 1, got %d", h)
	}
}

func TestSampleProb(t *testing.T) {
	p := Params{X: 0.5}
	if got := p.SampleProb(100); got < 0.099 || got > 0.101 {
		t.Fatalf("SampleProb = %v, want 0.1", got)
	}
	// Default X = 2/3.
	if got := (Params{}).SampleProb(1000); got < 0.099 || got > 0.101 {
		t.Fatalf("default SampleProb(1000) = %v, want ~0.1", got)
	}
}

func TestSkeletonDistancePreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid unweighted", graph.Grid(10, 10)},
		{"grid weighted", graph.WithRandomWeights(graph.Grid(9, 9), 10, rng)},
		{"sparse", graph.SparseConnected(120, 1.5, rng)},
		{"sparse weighted", graph.WithRandomWeights(graph.SparseConnected(110, 1.2, rng), 20, rng)},
		{"cycle", graph.Cycle(80)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			results := runSkeleton(t, tt.g, Params{X: 2.0 / 3.0}, 21)
			if err := CheckCoverage(results); err != nil {
				t.Fatal(err)
			}
			if err := CheckDistancePreservation(tt.g, results); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSkeletonSizeConcentration(t *testing.T) {
	g := graph.Grid(12, 12)
	n := g.N()
	p := Params{X: 0.5}
	results := runSkeleton(t, g, p, 23)
	count := 0
	for _, r := range results {
		if r.InSkeleton {
			count++
		}
	}
	mean := p.SampleProb(n) * float64(n) // = sqrt(n) = 12
	if float64(count) < mean/3 || float64(count) > mean*3 {
		t.Fatalf("|V_S| = %d, expected around %.1f", count, mean)
	}
}

func TestForceInclude(t *testing.T) {
	g := graph.Path(40)
	results, _, err := sim.RunPipeline(g, sim.Config{Seed: 5}, Pipeline(Params{X: 0.3}, func(id int) bool { return id == 17 }))
	if err != nil {
		t.Fatal(err)
	}
	if !results[17].InSkeleton {
		t.Fatal("forceInclude node not in skeleton")
	}
}

func TestNearSandwich(t *testing.T) {
	// d(v,u) <= Near[u] <= d_h(v,u) for every recorded pair, and
	// membership in Near is exactly "hop distance <= h".
	rng := rand.New(rand.NewSource(11))
	g := graph.WithRandomWeights(graph.Grid(8, 8), 7, rng)
	p := Params{X: 0.5}
	results := runSkeleton(t, g, p, 29)
	h := p.H(g.N())
	for v, r := range results {
		trueD := graph.Dijkstra(g, v)
		limD := graph.LimitedDistance(g, v, h)
		hops := graph.BFS(g, v)
		for u, est := range r.Near {
			if est < trueD[u] {
				t.Fatalf("node %d underestimates d(%d): %d < %d", v, u, est, trueD[u])
			}
			if est > limD[u] {
				t.Fatalf("node %d estimate for %d is %d > d_h = %d", v, u, est, limD[u])
			}
			if hops[u] > int64(h) {
				t.Fatalf("node %d recorded skeleton %d at hop distance %d > h = %d", v, u, hops[u], h)
			}
		}
		// Completeness: every skeleton node within h hops must be in Near.
		for u := 0; u < g.N(); u++ {
			if results[u].InSkeleton && hops[u] <= int64(h) {
				if _, ok := r.Near[u]; !ok {
					t.Fatalf("node %d missing skeleton %d at hop distance %d <= h", v, u, hops[u])
				}
			}
		}
	}
}

func TestNearHopsMatchBFS(t *testing.T) {
	g := graph.Grid(7, 7)
	results := runSkeleton(t, g, Params{X: 0.5}, 31)
	for v, r := range results {
		hops := graph.BFS(g, v)
		for u, hh := range r.NearHops {
			if int64(hh) != hops[u] {
				t.Fatalf("node %d records skeleton %d at %d hops, BFS says %d", v, u, hh, hops[u])
			}
		}
	}
}

func TestBuildRejectsInconsistent(t *testing.T) {
	results := []Result{
		{InSkeleton: true, H: 2, Near: map[int]int64{0: 0, 1: 5}},
		{InSkeleton: true, H: 2, Near: map[int]int64{1: 0, 0: 7}}, // weight mismatch
	}
	if _, _, err := Build(results); err == nil {
		t.Fatal("Build accepted asymmetric skeleton edges")
	}
}

func TestRepresentatives(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.WithRandomWeights(graph.Grid(8, 8), 5, rng)
	n := g.N()
	srcRng := rand.New(rand.NewSource(17))
	isSource := make([]bool, n)
	var sources []int
	for v := 0; v < n; v++ {
		if srcRng.Float64() < 0.15 {
			isSource[v] = true
			sources = append(sources, v)
		}
	}
	if len(sources) == 0 {
		isSource[0] = true
		sources = append(sources, 0)
	}

	skels := make([]Result, n)
	repsAt := make([][]RepInfo, n)
	_, err := sim.RunStep(g, sim.Config{Seed: 19}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		var repsM *RepresentativesMachine
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				return Pipeline(Params{X: 2.0 / 3.0}, nil)(env, func(r Result) { skels[id] = r })
			},
			func(env *sim.Env) sim.StepProgram {
				repsM = NewRepresentativesMachine(env, skels[id], isSource[id], len(sources))
				return repsM
			},
			sim.Finish(func(*sim.Env) { repsAt[id] = repsM.Out }),
		)
	})
	if err != nil {
		t.Fatal(err)
	}

	// All nodes agree on the full public list (Fact 4.4).
	for v := 1; v < n; v++ {
		if len(repsAt[v]) != len(repsAt[0]) {
			t.Fatalf("node %d sees %d rep triples, node 0 sees %d", v, len(repsAt[v]), len(repsAt[0]))
		}
		for i := range repsAt[v] {
			if repsAt[v][i] != repsAt[0][i] {
				t.Fatalf("node %d rep triple %d differs", v, i)
			}
		}
	}
	// One triple per source; rep is a skeleton node (or the source itself);
	// dist matches the source's Near map.
	reps := repsAt[0]
	if len(reps) != len(sources) {
		t.Fatalf("%d rep triples for %d sources", len(reps), len(sources))
	}
	for _, ri := range reps {
		if !isSource[ri.Source] {
			t.Fatalf("rep triple for non-source %d", ri.Source)
		}
		if ri.Rep == -1 {
			t.Fatalf("source %d found no representative (coverage failure)", ri.Source)
		}
		if !skels[ri.Rep].InSkeleton {
			t.Fatalf("representative %d of %d is not a skeleton node", ri.Rep, ri.Source)
		}
		if skels[ri.Source].InSkeleton && ri.Rep != ri.Source {
			t.Fatalf("skeleton source %d has rep %d, want itself", ri.Source, ri.Rep)
		}
		if d, ok := skels[ri.Source].Near[ri.Rep]; !ok || d != ri.Dist {
			t.Fatalf("rep dist mismatch for source %d: published %d, local %v", ri.Source, ri.Dist, d)
		}
	}
}

func TestSkeletonDeterminism(t *testing.T) {
	g := graph.Grid(6, 6)
	a := runSkeleton(t, g, Params{X: 0.5}, 41)
	b := runSkeleton(t, g, Params{X: 0.5}, 41)
	for v := range a {
		if a[v].InSkeleton != b[v].InSkeleton || len(a[v].Near) != len(b[v].Near) {
			t.Fatalf("node %d skeleton state differs between identical runs", v)
		}
	}
}

// TestExploreMergesSameRoundImprovements: when one source reaches a node over
// two neighbours in the same round, the node keeps the lighter estimate and
// forwards that one alone, whichever arrived first. The diamonds force both
// arrival orders at node 3 (the heavier estimate first: two improvements in
// one round; the lighter first: one); the weighted grid has such meetings at
// most nodes. Checked against sequential hop-limited Bellman-Ford and BFS, on
// every engine and for every source.
func TestExploreMergesSameRoundImprovements(t *testing.T) {
	diamond := func(w01, w02 int64) *graph.Graph {
		g := graph.New(5)
		for _, e := range [][3]int64{{0, 1, w01}, {0, 2, w02}, {1, 3, 1}, {2, 3, 1}, {3, 4, 2}} {
			if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	tests := []struct {
		name   string
		g      *graph.Graph
		rounds int
	}{
		{"diamond heavier first", diamond(5, 1), 3},
		{"diamond lighter first", diamond(1, 5), 3},
		{"weighted grid", graph.WithRandomWeights(graph.Grid(6, 5), 9, rand.New(rand.NewSource(4))), 6},
	}
	for _, tc := range tests {
		n := tc.g.N()
		for _, eng := range simtest.Engines {
			near, hops := make([][]int64, n), make([][]int64, n)
			_, err := sim.RunStep(tc.g, sim.Config{Seed: 1, Engine: eng}, func(env *sim.Env) sim.StepProgram {
				m := NewExploreMachine(env, true, tc.rounds)
				return sim.Then(m, func(env *sim.Env) {
					near[env.ID()] = m.Near
					for _, h := range m.Hops {
						hops[env.ID()] = append(hops[env.ID()], int64(h))
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < n; s++ {
				want, bfs := graph.LimitedDistance(tc.g, s, tc.rounds), graph.BFS(tc.g, s)
				for v := 0; v < n; v++ {
					wantHops := bfs[v]
					if wantHops > int64(tc.rounds) {
						wantHops = -1
					}
					if near[v][s] != want[v] || hops[v][s] != wantHops {
						t.Fatalf("%s on %s: node %d has source %d at (%d, %d hops), want (%d, %d hops)",
							tc.name, eng, v, s, near[v][s], hops[v][s], want[v], wantHops)
					}
				}
			}
		}
	}
}
