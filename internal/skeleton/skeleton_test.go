package skeleton

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	// HFactor is ξ: at n = 1000, x = 1/2 the paper's ξ = 2 gives
	// ceil(2·sqrt(1000)·ln 1000) = 437, and ξ = 1 half of it, rounded up.
	if h, h1 := (Params{X: 0.5}).H(1000), (Params{X: 0.5, HFactor: 1}).H(1000); h != 437 || h1 != 219 {
		t.Fatalf("H(1000) = %d at ξ = 2 and %d at ξ = 1, want 437 and 219", h, h1)
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
		for _, e := range r.Near {
			u, est := e.ID, e.Dist
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
				if _, ok := Find(r.Near, u); !ok {
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
		for _, e := range r.Near {
			if int64(e.Hops) != hops[e.ID] {
				t.Fatalf("node %d records skeleton %d at %d hops, BFS says %d", v, e.ID, e.Hops, hops[e.ID])
			}
		}
	}
}

func TestBuildRejectsInconsistent(t *testing.T) {
	results := []Result{
		{InSkeleton: true, H: 2, Near: []Heard{{ID: 0, Dist: 0}, {ID: 1, Dist: 5, Hops: 1}}},
		{InSkeleton: true, H: 2, Near: []Heard{{ID: 0, Dist: 7, Hops: 1}, {ID: 1, Dist: 0}}}, // weight mismatch
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
	// dist matches the source's Near list.
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
		if e, ok := Find(skels[ri.Source].Near, ri.Rep); !ok || e.Dist != ri.Dist {
			t.Fatalf("rep dist mismatch for source %d: published %d, local %d (heard: %v)", ri.Source, ri.Dist, e.Dist, ok)
		}
	}
}

func TestSkeletonDeterminism(t *testing.T) {
	g := graph.Grid(6, 6)
	a := runSkeleton(t, g, Params{X: 0.5}, 41)
	b := runSkeleton(t, g, Params{X: 0.5}, 41)
	for v := range a {
		if a[v].InSkeleton != b[v].InSkeleton || !slices.Equal(a[v].Near, b[v].Near) {
			t.Fatalf("node %d skeleton state differs between identical runs", v)
		}
	}
}

// TestExploreMergesSameRoundImprovements: when one source reaches a node over
// two neighbours in the same round, the node keeps the lighter estimate and
// forwards that one alone, whichever arrived first. The diamonds force both
// arrival orders at node 3 (the heavier estimate first: two improvements in
// one round; the lighter first: one); the weighted grid has such meetings at
// most nodes, and every case has some source fall twice in one round at some
// node (counted on the dense form). Both forms run on every engine: every
// delta a node receives names each source once, and the dense Near/Hops and
// the sparse Heard equal sequential hop-limited Bellman-Ford and BFS for
// every source.
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
			for _, sparse := range []bool{false, true} {
				name := fmt.Sprintf("%s on %s, sparse %v", tc.name, eng, sparse)
				near, hops := make([][]int64, n), make([][]int32, n)
				twice := make([]int, n)
				_, err := sim.RunStep(tc.g, sim.Config{Seed: 1, Engine: eng}, func(env *sim.Env) sim.StepProgram {
					id := env.ID()
					var m *ExploreMachine
					if sparse {
						m = NewSparseExploreMachine(env, true, tc.rounds)
					} else {
						m = NewExploreMachine(env, true, tc.rounds)
					}
					check := &deltaChecker{t: t, name: name, m: m, twice: &twice[id]}
					return sim.Then(check, func(env *sim.Env) {
						if sparse {
							near[id], hops[id] = densify(m.Heard, n)
						} else {
							near[id], hops[id] = m.Near, m.Hops
						}
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				if !sparse && slices.Max(twice) == 0 {
					t.Errorf("%s: no source improved twice in one round at any node", name)
				}
				for s := 0; s < n; s++ {
					want, bfs := graph.LimitedDistance(tc.g, s, tc.rounds), graph.BFS(tc.g, s)
					for v := 0; v < n; v++ {
						wantHops := int32(bfs[v])
						if bfs[v] > int64(tc.rounds) {
							wantHops = -1
						}
						if near[v][s] != want[v] || hops[v][s] != wantHops {
							t.Fatalf("%s: node %d has source %d at (%d, %d hops), want (%d, %d hops)",
								name, v, s, near[v][s], hops[v][s], want[v], wantHops)
						}
					}
				}
			}
		}
	}
}

// deltaChecker steps an exploration after checking the deltas in the node's
// inbox: each must name a source at most once. For the dense form it also
// counts, in *twice, the rounds in which a source's estimate at this node
// falls more than once — the staged updates the delta must merge.
type deltaChecker struct {
	t     *testing.T
	name  string
	m     *ExploreMachine
	twice *int
}

func (c *deltaChecker) Step(env *sim.Env) bool {
	est := slices.Clone(c.m.Near)
	falls := map[int]int{}
	for _, lm := range env.Incoming().Local {
		ups, ok := lm.Payload.(*distUpdates)
		if !ok {
			continue
		}
		w, _ := env.Graph().Weight(env.ID(), lm.From)
		seen := map[int]bool{}
		for _, up := range *ups {
			if seen[up.Source] {
				c.t.Errorf("%s: node %d got a delta from %d naming source %d twice: %v", c.name, env.ID(), lm.From, up.Source, *ups)
			}
			seen[up.Source] = true
			if est != nil && up.Dist+w < est[up.Source] {
				est[up.Source] = up.Dist + w
				falls[up.Source]++
			}
		}
	}
	for _, f := range falls {
		if f > 1 {
			*c.twice++
			break
		}
	}
	return c.m.Step(env)
}

// TestSparseExploreMachineMatchesDense runs both forms of the exploration on
// random weighted graphs with 1, k, n/8 and n sources, for a round count
// below the hop diameter and one above it, on every engine: the sparse form,
// densified, must hold the dense form's Near and Hops, at equal Metrics.
func TestSparseExploreMachineMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	graphs := []*graph.Graph{
		graph.WithRandomWeights(graph.SparseConnected(48, 1.3, rng), 9, rng),
		graph.WithRandomWeights(graph.Grid(7, 6), 5, rng),
	}
	type outcome struct {
		near [][]int64
		hops [][]int32
		m    sim.Metrics
	}
	run := func(g *graph.Graph, eng sim.Engine, isSource []bool, rounds int, sparse bool) outcome {
		n := g.N()
		o := outcome{near: make([][]int64, n), hops: make([][]int32, n)}
		var err error
		o.m, err = sim.RunStep(g, sim.Config{Seed: 3, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			if !sparse {
				m := NewExploreMachine(env, isSource[id], rounds)
				return sim.Then(m, func(*sim.Env) { o.near[id], o.hops[id] = m.Near, m.Hops })
			}
			m := NewSparseExploreMachine(env, isSource[id], rounds)
			return sim.Then(m, func(*sim.Env) {
				if !slices.IsSortedFunc(m.Heard, func(a, b Heard) int { return int(a.ID - b.ID) }) {
					t.Errorf("node %d: Heard not sorted by ID", id)
				}
				o.near[id], o.hops[id] = densify(m.Heard, n)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for gi, g := range graphs {
		n := g.N()
		diam := int(graph.HopDiameter(g))
		for _, k := range []int{1, 5, n / 8, n} {
			isSource := make([]bool, n)
			for _, s := range rng.Perm(n)[:k] {
				isSource[s] = true
			}
			for _, rounds := range []int{max(1, diam/3), diam + 2} {
				for _, eng := range simtest.Engines {
					name := fmt.Sprintf("graph %d, %d sources, %d rounds (hop diameter %d) on %s", gi, k, rounds, diam, eng)
					dense, sparse := run(g, eng, isSource, rounds, false), run(g, eng, isSource, rounds, true)
					if sparse.m != dense.m {
						t.Errorf("%s: sparse Metrics %+v, dense %+v", name, sparse.m, dense.m)
					}
					for v := 0; v < n; v++ {
						if !slices.Equal(sparse.near[v], dense.near[v]) || !slices.Equal(sparse.hops[v], dense.hops[v]) {
							t.Fatalf("%s: node %d differs:\nsparse %v %v\ndense  %v %v", name, v,
								sparse.near[v], sparse.hops[v], dense.near[v], dense.hops[v])
						}
					}
				}
			}
		}
	}
}

// TestAlgorithm6StateSizedByHeard: Algorithm 6 alone on a 64x64 grid (about
// 64 skeleton nodes, each heard everywhere) allocates less than 4 bytes per
// node pair in total, engine included (its per-node random streams are
// ~5 KB a node). Dense per-node vectors would be 12·n² bytes on their own;
// the sparse slots are O(|V_S|) per node.
func TestAlgorithm6StateSizedByHeard(t *testing.T) {
	g := graph.Grid(64, 64)
	n := g.N()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := sim.RunStep(g, sim.Config{Seed: 9}, func(env *sim.Env) sim.StepProgram {
		return NewComputeMachine(env, Params{X: 0.5}, false)
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != (Params{X: 0.5}).H(n) {
		t.Fatalf("ran %d rounds, want h = %d", m.Rounds, (Params{X: 0.5}).H(n))
	}
	limit := uint64(4 * n * n)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Algorithm 6 on %d nodes allocated %d bytes, want < 4·n² = %d", n, got, limit)
	} else {
		t.Logf("Algorithm 6 on %d nodes allocated %d bytes (%.2f·n²)", n, got, float64(got)/float64(n*n))
	}
}

// The tests below are the LOCAL-only SSSP baseline of the deleted
// internal/sssp: a sparse exploration from one source (or a few), exact once
// the round count reaches the shortest-path diameter SPD(G).

func runLocal(t *testing.T, g *graph.Graph, src, rounds int, seed int64) ([]int64, sim.Metrics) {
	t.Helper()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, func(env *sim.Env, done func(int64)) sim.StepProgram {
		e := NewSparseExploreMachine(env, env.ID() == src, rounds)
		return sim.Then(e, func(*sim.Env) { done(singleSource(e)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

func TestLocalExactAfterSPDRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(40)},
		{"weighted sparse", graph.WithRandomWeights(graph.SparseConnected(60, 1.2, rng), 9, rng)},
		{"grid", graph.Grid(6, 7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spd := graph.SPD(tt.g)
			got, m := runLocal(t, tt.g, 0, spd, 3)
			want := graph.Dijkstra(tt.g, 0)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("d(%d) = %d, want %d", v, got[v], want[v])
				}
			}
			if m.Rounds != spd {
				t.Fatalf("took %d rounds, want exactly SPD = %d", m.Rounds, spd)
			}
			if m.GlobalMsgs != 0 {
				t.Fatalf("LOCAL baseline used %d global messages", m.GlobalMsgs)
			}
		})
	}
}

func TestLocalIncompleteBeforeSPD(t *testing.T) {
	g := graph.Path(30)
	got, _ := runLocal(t, g, 0, 10, 5)
	if got[29] != graph.Inf {
		t.Fatalf("node 29 resolved to %d after 10 rounds; path needs 29", got[29])
	}
	if got[10] != 10 {
		t.Fatalf("node 10 = %d, want 10", got[10])
	}
}

func TestLocalSourceIsZero(t *testing.T) {
	g := graph.Cycle(12)
	got, _ := runLocal(t, g, 7, 6, 7)
	if got[7] != 0 {
		t.Fatalf("source distance = %d, want 0", got[7])
	}
}

func TestLocalAllMultiSource(t *testing.T) {
	g := graph.Grid(5, 5)
	sources := map[int]bool{0: true, 24: true}
	out, _, err := sim.RunPipeline(g, sim.Config{Seed: 9}, func(env *sim.Env, done func([]Heard)) sim.StepProgram {
		e := NewSparseExploreMachine(env, sources[env.ID()], 8)
		return sim.Then(e, func(*sim.Env) { done(e.Heard) })
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range sources {
		d := graph.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if e, ok := Find(out[v], s); !ok || e.Dist != d[v] {
				t.Fatalf("node %d dist to %d = %d (heard: %v), want %d", v, s, e.Dist, ok, d[v])
			}
		}
	}
}
