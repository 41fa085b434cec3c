package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/diameter"
	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/lowerbound"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// E5KSSP reproduces Theorem 1.2: the three k-SSP parameterizations, with
// measured approximation ratios against Dijkstra.
func E5KSSP(cfg Config) Table {
	t := Table{
		ID:     "E5",
		Title:  "k-SSP (Theorem 1.2): rounds and worst observed ratio per corollary",
		Header: []string{"variant", "n", "k", "rounds", "max ratio", "paper bound", "ok"},
	}
	n := 100
	if !cfg.Quick {
		n = 256
	}
	// A weighted path: hop diameter n-1 far exceeds the ηh local
	// exploration radius, so the representative/skeleton machinery (not
	// the exact local term of Equation (1)) produces most estimates and
	// the approximation envelope is actually exercised.
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	g := graph.WithRandomWeights(graph.Path(n), 10, rng)
	k := int(math.Cbrt(float64(n))) + 2
	sources := pickSources(n, k, cfg.Seed)

	eps := 0.5
	variants := []struct {
		name  string
		spec  kssp.AlgSpec
		bound float64
	}{
		{"Cor4.6 (3+eps)", kssp.Corollary46(eps, cfg.Seed), 3 + 4*eps},
		{"Cor4.7 (7+eps)", kssp.Corollary47(eps, cfg.Seed), 7 + 6*eps},
		{"Cor4.8 (3+o(1))", kssp.Corollary48(eps, cfg.Seed), 3 + 4*eps},
		{"RealMM (3)", kssp.RealMM(2), 3},
	}
	for _, v := range variants {
		rounds, ratio, err := runKSSPVariant(g, sources, v.spec, cfg.Seed)
		if err != nil {
			t.Failf("%s: %v", v.name, err)
			continue
		}
		ok := ratio <= v.bound
		t.Add(v.name, fmt.Sprint(n), fmt.Sprint(len(sources)), fmt.Sprint(rounds),
			fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.2f", v.bound), fmt.Sprint(ok))
		if !ok {
			t.Failf("%s: ratio %.3f exceeds bound %.2f", v.name, ratio, v.bound)
		}
	}

	// Weighted scaling sweep (ROADMAP): the two corollaries whose weighted
	// guarantees the paper states asymptotically — Cor 4.6 at O~(n^(1/3)/ε)
	// and Cor 4.8 at O~(n^0.397 + sqrt k) — across sizes, so the round
	// growth (not just the envelope) is on record for weighted graphs.
	sweep := []int{64, 100}
	if !cfg.Quick {
		sweep = []int{100, 196, 324}
	}
	var wns, w46, w48 []float64
	for _, wn := range sweep {
		wrng := rand.New(rand.NewSource(cfg.Seed + 5 + int64(wn)))
		wg := graph.WithRandomWeights(graph.Path(wn), 10, wrng)
		wk := int(math.Cbrt(float64(wn))) + 2
		wsources := pickSources(wn, wk, cfg.Seed+int64(wn))
		wvariants := []struct {
			name  string
			spec  kssp.AlgSpec
			bound float64
			dst   *[]float64
		}{
			{"Cor4.6 (3+eps) wsweep", kssp.Corollary46(eps, cfg.Seed), 3 + 4*eps, &w46},
			{"Cor4.8 (3+o(1)) wsweep", kssp.Corollary48(eps, cfg.Seed), 3 + 4*eps, &w48},
		}
		for _, wv := range wvariants {
			rounds, ratio, err := runKSSPVariant(wg, wsources, wv.spec, cfg.Seed)
			if err != nil {
				t.Failf("%s n=%d: %v", wv.name, wn, err)
				continue
			}
			ok := ratio <= wv.bound
			t.Add(wv.name, fmt.Sprint(wn), fmt.Sprint(len(wsources)), fmt.Sprint(rounds),
				fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.2f", wv.bound), fmt.Sprint(ok))
			if !ok {
				t.Failf("%s n=%d: ratio %.3f exceeds bound %.2f", wv.name, wn, ratio, wv.bound)
			}
			*wv.dst = append(*wv.dst, float64(rounds))
		}
		wns = append(wns, float64(wn))
	}
	if len(wns) >= 2 && len(w46) == len(wns) && len(w48) == len(wns) {
		t.Notef("weighted scaling on paths: Cor4.6 rounds ~ n^%.2f, Cor4.8 ~ n^%.2f (paper: 1/3 resp. 0.397, + polylog and the sqrt-k term)",
			FitExponent(wns, w46), FitExponent(wns, w48))
	}
	t.Notef("oracle variants run the published (delta, eta, alpha) of [7,8] with perturbed outputs at the declared envelope")
	return t
}

func pickSources(n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed + 77))
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func runKSSPVariant(g *graph.Graph, sources []int, spec kssp.AlgSpec, seed int64) (int, float64, error) {
	n := g.N()
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	res, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, kssp.Pipeline(isSource, len(sources), spec, kssp.Params{}))
	if err != nil {
		return 0, 0, err
	}
	out := make([]map[int]int64, n)
	for v := range res {
		out[v] = make(map[int]int64, len(res[v]))
		for _, sd := range res[v] {
			out[v][sd.Source] = sd.Dist
		}
	}
	worst := 1.0
	for _, s := range sources {
		want := graph.Dijkstra(g, s)
		for v := 0; v < n; v++ {
			dt, ok := out[v][s]
			if !ok {
				return m.Rounds, 0, fmt.Errorf("node %d missing estimate for %d", v, s)
			}
			if dt < want[v] {
				return m.Rounds, 0, fmt.Errorf("underestimate at (%d,%d)", v, s)
			}
			if want[v] > 0 {
				if r := float64(dt) / float64(want[v]); r > worst {
					worst = r
				}
			}
		}
	}
	return m.Rounds, worst, nil
}

// E6SSSP reproduces Theorem 1.3: exact SSSP in O~(n^(2/5)) vs the Θ(SPD)
// LOCAL Bellman-Ford baseline, on a high-SPD topology where the skeleton
// approach wins asymptotically.
func E6SSSP(cfg Config) Table {
	t := Table{
		ID:     "E6",
		Title:  "Exact SSSP (Theorem 1.3): O~(n^(2/5)) vs LOCAL Θ(SPD)",
		Header: []string{"graph", "n", "SPD", "thm1.3 rounds", "local rounds", "exact"},
	}
	sizes := []int{100}
	if !cfg.Quick {
		sizes = append(sizes, 256, 400)
	}
	sizes = cfg.xlSizes(sizes)
	var ns, rounds []float64
	for _, n := range sizes {
		for _, shape := range []string{"path", "sparse"} {
			var g *graph.Graph
			if shape == "path" {
				g = graph.Path(n)
			} else {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
				g = graph.WithRandomWeights(graph.SparseConnected(n, 1.3, rng), 8, rng)
			}
			spd := graph.SPD(g)
			want := graph.Dijkstra(g, 0)

			r1, ok := runSSSPTheorem(g, 0, cfg, want)
			r2 := runSSSPLocal(g, 0, spd, cfg, want, &t)
			t.Add(shape, fmt.Sprint(n), fmt.Sprint(spd), fmt.Sprint(r1), fmt.Sprint(r2), fmt.Sprint(ok))
			if !ok {
				t.Failf("%s n=%d: Theorem 1.3 SSSP not exact", shape, n)
			}
			if shape == "path" {
				ns = append(ns, float64(n))
				rounds = append(rounds, float64(r1))
			}
		}
	}
	if len(ns) >= 2 {
		t.Notef("fitted exponent on paths: thm1.3 rounds ~ n^%.2f (paper: 0.4 + polylog); LOCAL is exactly SPD = n-1", FitExponent(ns, rounds))
	}
	return t
}

func runSSSPTheorem(g *graph.Graph, src int, cfg Config, want []int64) (int, bool) {
	n := g.N()
	isSource := make([]bool, n)
	isSource[src] = true
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: cfg.Seed, Engine: cfg.Engine}, kssp.Pipeline(isSource, 1, kssp.Corollary49(), kssp.Params{}))
	if err != nil {
		return 0, false
	}
	for v := 0; v < n; v++ {
		if len(out[v]) != 1 || out[v][0].Source != src || out[v][0].Dist != want[v] {
			return m.Rounds, false
		}
	}
	return m.Rounds, true
}

// runSSSPLocal is the LOCAL-only baseline: `rounds` rounds of Bellman-Ford
// from src over the local network, exact once rounds >= SPD(G). A node's
// distance is the one estimate its sparse exploration holds, graph.Inf if
// the wave never reached it.
func runSSSPLocal(g *graph.Graph, src, rounds int, cfg Config, want []int64, t *Table) int {
	n := g.N()
	out := make([]int64, n)
	m, err := sim.RunStep(g, sim.Config{Seed: cfg.Seed, Engine: cfg.Engine}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		explore := skeleton.NewSparseExploreMachine(env, id == src, rounds)
		return sim.Then(explore, func(*sim.Env) {
			out[id] = graph.Inf
			if len(explore.Heard) > 0 {
				out[id] = explore.Heard[0].Dist
			}
		})
	})
	if err != nil {
		t.Failf("local SSSP: %v", err)
		return 0
	}
	for v := 0; v < n; v++ {
		if out[v] != want[v] {
			t.Failf("local SSSP inexact at %d", v)
			break
		}
	}
	return m.Rounds
}

// E7Diameter reproduces Theorem 1.4: (3/2+ε) and (1+ε) diameter
// approximations with the Equation (3) exact-small-diameter path.
func E7Diameter(cfg Config) Table {
	t := Table{
		ID:     "E7",
		Title:  "Diameter (Theorem 1.4): estimates vs true D",
		Header: []string{"variant", "graph", "n", "D", "estimate", "ratio", "bound", "ok"},
	}
	n := 100
	if !cfg.Quick {
		n = 324
	}
	eps := 0.5
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(isqrt(n), isqrt(n))},
		{"path", graph.Path(n)},
		{"cycle", graph.Cycle(n)},
	}
	variants := []struct {
		name  string
		spec  diameter.AlgSpec
		bound float64
	}{
		{"Cor5.2 (3/2+eps)", diameter.Corollary52(eps, 0), 1.5 + 3*eps},
		{"Cor5.3 (1+eps)", diameter.Corollary53(eps, 0), 1 + 3*eps},
	}
	for _, v := range variants {
		for _, gg := range graphs {
			d := graph.HopDiameter(gg.g)
			est, rounds, err := runDiameterVariant(gg.g, v.spec, cfg.Seed)
			_ = rounds
			if err != nil {
				t.Failf("%s %s: %v", v.name, gg.name, err)
				continue
			}
			ratio := float64(est) / float64(d)
			ok := est >= d && ratio <= v.bound
			t.Add(v.name, gg.name, fmt.Sprint(gg.g.N()), fmt.Sprint(d), fmt.Sprint(est),
				fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.2f", v.bound), fmt.Sprint(ok))
			if !ok {
				t.Failf("%s on %s: estimate %d vs D %d outside bound", v.name, gg.name, est, d)
			}
		}
	}
	t.Notef("small-D graphs resolve exactly via the h-hat aggregation path of Equation (3)")
	return t
}

func runDiameterVariant(g *graph.Graph, spec diameter.AlgSpec, seed int64) (int64, int, error) {
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, diameter.Pipeline(spec, diameter.Params{}))
	if err != nil {
		return 0, 0, err
	}
	return out[0], m.Rounds, nil
}

func isqrt(x int) int {
	r := 1
	for r*r < x {
		r++
	}
	return r
}

// E8KSSPLowerBound reproduces Theorem 1.5 / Figure 1: the construction's
// structural facts, the entropy/capacity arithmetic giving Ω~(sqrt k), and
// a cut-instrumented APSP run showing the global bits actually crossing
// the bottleneck.
func E8KSSPLowerBound(cfg Config) Table {
	t := Table{
		ID:     "E8",
		Title:  "k-SSP lower bound (Theorem 1.5, Figure 1)",
		Header: []string{"k", "L", "n", "entropy bits", "path cap bits/round", "implied LB rounds", "sqrt(k)", "gap factor"},
	}
	ks := []int{64, 256}
	if !cfg.Quick {
		ks = append(ks, 1024)
	}
	for _, k := range ks {
		l := int(math.Ceil(math.Sqrt(float64(k))))
		p := lowerbound.Fig1Params{K: k, L: l, PathLen: 2 * k}
		inS1 := make([]bool, k)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
		for i := range inS1 {
			inS1[i] = rng.Intn(2) == 0
		}
		f, err := lowerbound.BuildFig1(p, inS1)
		if err != nil {
			t.Failf("k=%d: %v", k, err)
			continue
		}
		if err := f.Verify(); err != nil {
			t.Failf("k=%d: structure: %v", k, err)
			continue
		}
		n := f.G.N()
		ent := lowerbound.EntropyBits(k)
		cap := lowerbound.PathCapacityBits(l, n, 1)
		lb := ent / cap
		t.Add(fmt.Sprint(k), fmt.Sprint(l), fmt.Sprint(n),
			fmt.Sprintf("%.0f", ent), fmt.Sprintf("%.0f", cap),
			fmt.Sprintf("%.2f", lb), fmt.Sprintf("%.1f", math.Sqrt(float64(k))),
			fmt.Sprintf("%.1f", f.ApproxGap()))
	}
	t.Notef("implied LB = entropy/capacity = Omega(sqrt(k)/log^2 n); gap factor = alpha' of Theorem 1.5 (approximations below it are equally hard)")

	// Cut-instrumented run: an actual SSSP on the Figure 1 graph must move
	// information across the bottleneck cut.
	k := 64
	l := 8
	inS1 := make([]bool, k)
	rng := rand.New(rand.NewSource(cfg.Seed + 999))
	for i := range inS1 {
		inS1[i] = rng.Intn(2) == 0
	}
	f, err := lowerbound.BuildFig1(lowerbound.Fig1Params{K: k, L: l, PathLen: 2 * k}, inS1)
	if err == nil {
		isSource := make([]bool, f.G.N())
		isSource[f.Sources[0]] = true
		_, m, runErr := sim.RunPipeline(f.G, sim.Config{Seed: cfg.Seed, Cut: f.AliceCut()}, kssp.Pipeline(isSource, 1, kssp.Corollary49(), kssp.Params{}))
		if runErr == nil {
			t.Notef("instrumented SSSP run on Fig.1 (k=%d): %d global bits crossed the b-side cut in %d rounds",
				k, m.CutGlobalBits, m.Rounds)
		}
	}
	return t
}
