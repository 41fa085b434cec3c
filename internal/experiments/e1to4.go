package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/clique"
	"repro/internal/cliquesim"
	"repro/internal/graph"
	"repro/internal/helpers"
	"repro/internal/hybridapsp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// E1TokenRouting reproduces Theorem 2.2: token routing completes, delivers
// everything, and its rounds track O~(K/n + sqrt(kS) + sqrt(kR)).
func E1TokenRouting(cfg Config) Table {
	t := Table{
		ID:     "E1",
		Title:  "Token routing (Theorem 2.2): rounds vs O~(K/n + sqrt kS + sqrt kR)",
		Header: []string{"n", "|S|", "|R|", "kS", "kR", "rounds", "predictor", "rounds/pred", "delivered"},
	}
	sizes := []int{64, 144}
	if !cfg.Quick {
		sizes = append(sizes, 256, 400)
	}
	for _, n := range sizes {
		for _, tokensPerSender := range []int{2, 8} {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n) + int64(tokensPerSender)))
			g := graph.SparseConnected(n, 1.2, rng)
			specs, sCount, rCount, kR := buildRoutingInstance(n, 0.2, 0.2, tokensPerSender, rng)
			rounds, ok := runRouting(g, specs, cfg.Seed)
			k := float64(sCount*tokensPerSender + rCount*kR)
			pred := k/float64(n) + math.Sqrt(float64(tokensPerSender)) + math.Sqrt(float64(kR))
			logN := float64(sim.Log2Ceil(n))
			t.Add(fmt.Sprint(n), fmt.Sprint(sCount), fmt.Sprint(rCount),
				fmt.Sprint(tokensPerSender), fmt.Sprint(kR),
				fmt.Sprint(rounds), fmt.Sprintf("%.1f", pred*logN*logN),
				fmt.Sprintf("%.2f", float64(rounds)/(pred*logN*logN)),
				fmt.Sprint(ok))
			if !ok {
				t.Failf("n=%d tokens=%d: delivery incomplete", n, tokensPerSender)
			}
		}
	}
	t.Notef("predictor = (K/n + sqrt kS + sqrt kR) * log^2 n; the ratio column should stay O(1) across the sweep")
	return t
}

func buildRoutingInstance(n int, pS, pR float64, tokensPerSender int, rng *rand.Rand) ([]routing.Spec, int, int, int) {
	var senders, receivers []int
	specs := make([]routing.Spec, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < pS {
			specs[v].InS = true
			senders = append(senders, v)
		}
		if rng.Float64() < pR {
			specs[v].InR = true
			receivers = append(receivers, v)
		}
	}
	if len(senders) == 0 {
		specs[0].InS = true
		senders = []int{0}
	}
	if len(receivers) == 0 {
		specs[n-1].InR = true
		receivers = []int{n - 1}
	}
	idx := map[[2]int]int64{}
	for _, s := range senders {
		for j := 0; j < tokensPerSender; j++ {
			r := receivers[rng.Intn(len(receivers))]
			key := [2]int{s, r}
			i := idx[key]
			idx[key]++
			tok := routing.Token{Label: routing.Label{S: s, R: r, I: i}, Value: int64(s*100 + j)}
			specs[s].Send = append(specs[s].Send, tok)
			specs[r].Expect = append(specs[r].Expect, tok.Label)
		}
	}
	kR := 1
	for _, sp := range specs {
		if len(sp.Expect) > kR {
			kR = len(sp.Expect)
		}
	}
	for v := range specs {
		specs[v].KS = tokensPerSender
		specs[v].KR = kR
		specs[v].PS = pS
		specs[v].PR = pR
	}
	return specs, len(senders), len(receivers), kR
}

func runRouting(g *graph.Graph, specs []routing.Spec, seed int64) (int, bool) {
	n := g.N()
	got, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, routing.Pipeline(specs, routing.Params{}))
	if err != nil {
		return 0, false
	}
	for v := 0; v < n; v++ {
		if len(got[v]) != len(specs[v].Expect) {
			return m.Rounds, false
		}
	}
	return m.Rounds, true
}

// E2HelperSets reproduces Lemma 2.2 / Definition 2.1: helper families exist
// with the three properties.
func E2HelperSets(cfg Config) Table {
	t := Table{
		ID:     "E2",
		Title:  "Helper sets (Lemma 2.2): Definition 2.1 properties",
		Header: []string{"n", "p", "mu", "min|H_w|", "max hop(w,x)/mu*logn", "max load/logn", "valid"},
	}
	sizes := []int{100}
	if !cfg.Quick {
		sizes = append(sizes, 196, 324)
	}
	for _, n := range sizes {
		for _, p := range []float64{0.1, 0.3} {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n*7)))
			g := graph.SparseConnected(n, 1.0, rng)
			inW := make([]bool, n)
			wrng := rand.New(rand.NewSource(cfg.Seed + int64(n*13)))
			for i := range inW {
				inW[i] = wrng.Float64() < p
			}
			mu := int(math.Min(math.Sqrt(float64(n))/2, 1/p))
			if mu < 1 {
				mu = 1
			}
			results, _, err := sim.RunPipeline(g, sim.Config{Seed: cfg.Seed}, helpers.Pipeline(inW, mu, helpers.Params{}))
			if err != nil {
				t.Failf("n=%d p=%.1f: %v", n, p, err)
				continue
			}
			minH, maxHopRatio, maxLoadRatio := helperStats(g, results, mu)
			valid := helpers.CheckFamily(g, results, mu, 8, 8) == nil
			t.Add(fmt.Sprint(n), fmt.Sprintf("%.1f", p), fmt.Sprint(mu),
				fmt.Sprint(minH), fmt.Sprintf("%.2f", maxHopRatio), fmt.Sprintf("%.2f", maxLoadRatio),
				fmt.Sprint(valid))
			if !valid {
				t.Failf("n=%d p=%.1f: Definition 2.1 violated", n, p)
			}
		}
	}
	t.Notef("properties: (1) |H_w| >= mu, (2) helpers within O~(mu) hops, (3) each node helps O~(1) sets")
	return t
}

func helperStats(g *graph.Graph, results []helpers.Result, mu int) (int, float64, float64) {
	n := g.N()
	logN := float64(sim.Log2Ceil(n))
	hw := map[int][]int{}
	maxLoad := 0
	for x := 0; x < n; x++ {
		if l := len(results[x].Helps); l > maxLoad {
			maxLoad = l
		}
		for _, w := range results[x].Helps {
			hw[w] = append(hw[w], x)
		}
	}
	minH := n
	maxHop := 0.0
	for w, set := range hw {
		if len(set) < minH {
			minH = len(set)
		}
		d := graph.BFS(g, w)
		for _, x := range set {
			if r := float64(d[x]) / (float64(mu) * logN); r > maxHop {
				maxHop = r
			}
		}
	}
	if len(hw) == 0 {
		minH = 0
	}
	return minH, maxHop, float64(maxLoad) / logN
}

// E3APSP reproduces Theorem 1.1: exact APSP in O~(sqrt n), beating the
// O~(n^(2/3)) baseline of [3] as n grows.
func E3APSP(cfg Config) Table {
	t := Table{
		ID:     "E3",
		Title:  "Exact APSP (Theorem 1.1) vs [3] baseline vs LOCAL Θ(D)",
		Header: []string{"graph", "n", "D", "thm1.1 rounds", "[3] rounds", "exact"},
	}
	sizes := []int{64, 144}
	if !cfg.Quick {
		sizes = append(sizes, 256, 400)
	}
	sizes = cfg.xlSizes(sizes)
	// The [3] baseline broadcasts Θ(n²/x) labels; above this size that step
	// alone dwarfs the table's runtime budget, so the XL rows track
	// Theorem 1.1 only.
	const baselineCap = 1024
	var ns, newRounds []float64
	var nsBase, baseRounds []float64
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		g := graph.SparseConnected(n, 1.2, rng)
		d := graph.HopDiameter(g)

		r1, ok1 := runAPSPVariant(g, cfg, func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return hybridapsp.NewComputeMachine(env, hybridapsp.Params{}, done)
		})
		if !ok1 {
			t.Failf("n=%d: Theorem 1.1 APSP not exact", n)
		}
		ns = append(ns, float64(n))
		newRounds = append(newRounds, float64(r1))

		baseCol := "-"
		if n <= baselineCap {
			r2, ok2 := runAPSPVariant(g, cfg, func(env *sim.Env, done func([]int64)) sim.StepProgram {
				return hybridapsp.NewBaselineComputeMachine(env, hybridapsp.Params{}, done)
			})
			if !ok2 {
				t.Failf("n=%d: baseline APSP not exact", n)
			}
			ok1 = ok1 && ok2
			baseCol = fmt.Sprint(r2)
			nsBase = append(nsBase, float64(n))
			baseRounds = append(baseRounds, float64(r2))
		}
		t.Add("sparse", fmt.Sprint(n), fmt.Sprint(d), fmt.Sprint(r1), baseCol, fmt.Sprint(ok1))
	}
	if len(ns) >= 2 && len(nsBase) >= 2 {
		eNew := FitExponent(ns, newRounds)
		eBase := FitExponent(nsBase, baseRounds)
		t.Notef("fitted exponent: thm1.1 rounds ~ n^%.2f (paper: 0.5 + polylog), baseline ~ n^%.2f (paper: 0.667 + polylog)",
			eNew, eBase)
		// At small n the baseline's constants win; the exponent gap decides
		// asymptotically. Project the crossover from the largest size both
		// variants ran at.
		last := len(nsBase) - 1
		ratio := newRounds[last] / baseRounds[last]
		if eBase > eNew && ratio > 1 {
			cross := nsBase[last] * math.Pow(ratio, 1/(eBase-eNew))
			t.Notef("baseline currently %.2fx faster; exponent gap projects the Theorem 1.1 crossover near n ~ %.0f",
				ratio, cross)
		} else if ratio <= 1 {
			t.Notef("Theorem 1.1 already faster at n=%d (%.2fx)", int(nsBase[last]), 1/ratio)
		}
	}
	return t
}

// runAPSPVariant executes one APSP machine on the default engine and checks
// exactness.
func runAPSPVariant(g *graph.Graph, cfg Config, mf func(*sim.Env, func([]int64)) sim.StepProgram) (int, bool) {
	out := make([][]int64, g.N())
	m, err := sim.RunStep(g, sim.Config{Seed: cfg.Seed}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		return mf(env, func(res []int64) { out[id] = res })
	})
	if err != nil {
		return 0, false
	}
	return m.Rounds, exactAPSP(g, out)
}

// exactAPSP reports whether graph.Certify accepts every node's row of out
// with that node as the source.
func exactAPSP(g *graph.Graph, out [][]int64) bool {
	for s, row := range out {
		if graph.Certify(g, s, row) != nil {
			return false
		}
	}
	return true
}

// E4CliqueSim reproduces Corollary 4.1: the cost of simulating one CLIQUE
// round on an n^x-node skeleton tracks O~(n^(x/2) + n^(2x-1)).
func E4CliqueSim(cfg Config) Table {
	t := Table{
		ID:     "E4",
		Title:  "CLIQUE round simulation on skeletons (Corollary 4.1)",
		Header: []string{"n", "x", "|S|", "rounds/clique-round", "predictor", "ratio"},
	}
	n := 144
	if cfg.Quick {
		n = 100
	}
	for _, x := range []float64{0.4, 0.5, 2.0 / 3.0} {
		sp := skeleton.Params{X: x}
		const ta = 3
		var q int
		rounds, err := runCliqueSimulation(n, sp, ta, cfg.Seed, &q)
		if err != nil {
			t.Failf("x=%.2f: %v", x, err)
			continue
		}
		logN := float64(sim.Log2Ceil(n))
		pred := (math.Pow(float64(n), x/2) + math.Pow(float64(n), 2*x-1)) * logN * logN
		perRound := float64(rounds) / ta
		t.Add(fmt.Sprint(n), fmt.Sprintf("%.2f", x), fmt.Sprint(q),
			fmt.Sprintf("%.1f", perRound), fmt.Sprintf("%.1f", pred),
			fmt.Sprintf("%.2f", perRound/pred))
	}
	t.Notef("predictor = (n^(x/2) + n^(2x-1)) * log^2 n; per-simulated-round cost includes the amortized session setup")
	return t
}

func runCliqueSimulation(n int, sp skeleton.Params, ta float64, seed int64, qOut *int) (int, error) {
	rng := rand.New(rand.NewSource(seed + int64(n)))
	g := graph.SparseConnected(n, 1.2, rng)
	qs, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, func(env *sim.Env, done func(int)) sim.StepProgram {
		factory := func(q int, members []int) clique.Algorithm {
			v := env.SharedOnce("e4.alg", func() interface{} {
				return clique.NewOracle(q, nil, clique.CostModel{Delta: 0, Eta: ta}, clique.Quality{Alpha: 1}, false)
			})
			return v.(clique.Algorithm)
		}
		var skelM *skeleton.ComputeMachine
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				skelM = skeleton.NewComputeMachine(env, sp, false)
				return skelM
			},
			func(env *sim.Env) sim.StepProgram {
				return cliquesim.NewSimulateMachine(env, skelM.Res, sp.SampleProb(env.N()), factory, routing.Params{},
					func(res cliquesim.Result) { done(len(res.Members)) })
			},
		)
	})
	if err != nil {
		return 0, err
	}
	*qOut = qs[0]
	return m.Rounds, nil
}
