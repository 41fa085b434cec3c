package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/diameter"
	"repro/internal/graph"
	"repro/internal/hybridapsp"
	"repro/internal/kssp"
	"repro/internal/lowerbound"
	"repro/internal/ncc"
	"repro/internal/sim"
)

// E9DiameterLowerBound reproduces Theorem 1.6 / Figure 2: the diameter
// dichotomy verifies on random instances at several sizes, the bound
// arithmetic produces the Ω((n/log²n)^(1/3)) curve, and a cut-instrumented
// run of the real diameter algorithm on Γ shows the Alice/Bob traffic.
func E9DiameterLowerBound(cfg Config) Table {
	t := Table{
		ID:     "E9",
		Title:  "Diameter lower bound (Theorem 1.6, Figure 2)",
		Header: []string{"n target", "k", "l", "Gamma n", "k^2 bits", "implied LB rounds", "dichotomy"},
	}
	targets := []int{200, 1000}
	if !cfg.Quick {
		targets = append(targets, 5000, 20000)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	for _, n := range targets {
		k, l := lowerbound.GammaSizing(n)
		p := lowerbound.GammaParams{K: k, L: l, W: int64(l) + 1}
		okAll := true
		// The dichotomy verification needs exact APSP on Γ; keep the
		// verified instances modest while reporting the scaled arithmetic.
		vk, vl := k, l
		if vk > 6 {
			vk = 6
		}
		if vl > 8 {
			vl = 8
		}
		vp := lowerbound.GammaParams{K: vk, L: vl, W: int64(vl) + 1}
		for trial := 0; trial < 6; trial++ {
			a, b := lowerbound.RandomInstance(vp.Bits(), 0.3, trial%2 == 1, rng)
			if err := lowerbound.VerifyLemma71(vp, a, b); err != nil {
				t.Failf("n=%d trial %d (weighted): %v", n, trial, err)
				okAll = false
			}
			if err := lowerbound.VerifyLemma72(vk, vl, a, b); err != nil {
				t.Failf("n=%d trial %d (unweighted): %v", n, trial, err)
				okAll = false
			}
		}
		t.Add(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(l), fmt.Sprint(p.N()),
			fmt.Sprint(p.Bits()), fmt.Sprintf("%.1f", lowerbound.DiameterRoundLB(n)),
			fmt.Sprint(okAll))
	}

	// Cut-instrumented run: the real (3/2+eps) diameter algorithm on a
	// small Γ; the disjointness argument says distinguishing instances
	// requires Ω(k²) bits across the column cut.
	k, l := 4, 6
	p := lowerbound.GammaParams{K: k, L: l, W: 1}
	a, b := lowerbound.RandomInstance(p.Bits(), 0.3, false, rng)
	gm, err := lowerbound.BuildGamma(p, a, b)
	if err == nil {
		_, m, runErr := sim.RunPipeline(gm.G, sim.Config{Seed: cfg.Seed, Cut: gm.AliceCut()}, diameter.Pipeline(diameter.Corollary52(0.5, 0), kssp.Params{}))
		if runErr == nil {
			t.Notef("instrumented diameter run on Gamma (k=%d, l=%d, n=%d): %d global bits crossed the Alice/Bob cut; k^2 = %d bits of DISJ input",
				k, l, gm.G.N(), m.CutGlobalBits, k*k)
		} else {
			t.Failf("instrumented run: %v", runErr)
		}
	}
	t.Notef("exact diameter needs Omega((n/log^2 n)^(1/3)) rounds; for weighted Gamma the same holds for (2-eps)-approximation (Lemma 7.1)")
	return t
}

// E10RecvLoad reproduces Lemma D.2: across full APSP runs (which stack
// every protocol in the repository), the peak per-round global receive
// load stays O(log n).
func E10RecvLoad(cfg Config) Table {
	t := Table{
		ID:     "E10",
		Title:  "Receive load (Lemma D.2): peak global receive per round vs log n",
		Header: []string{"n", "log2 n", "max recv", "max recv / log n", "ok"},
	}
	sizes := []int{64, 144}
	if !cfg.Quick {
		sizes = append(sizes, 256, 400)
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		g := graph.SparseConnected(n, 1.2, rng)
		_, m, err := sim.RunPipeline(g, sim.Config{Seed: cfg.Seed}, hybridapsp.Pipeline(hybridapsp.Params{}))
		if err != nil {
			t.Failf("n=%d: %v", n, err)
			continue
		}
		logN := sim.Log2Ceil(n)
		ratio := float64(m.MaxGlobalRecv) / float64(logN)
		ok := ratio <= 10
		t.Add(fmt.Sprint(n), fmt.Sprint(logN), fmt.Sprint(m.MaxGlobalRecv),
			fmt.Sprintf("%.2f", ratio), fmt.Sprint(ok))
		if !ok {
			t.Failf("n=%d: receive load ratio %.2f exceeds 10", n, ratio)
		}
	}
	t.Notef("k-wise independent hash routing keeps the ratio O(1); growth with n would falsify Lemma D.2")
	return t
}

// E11ModeComparison reproduces the §1 model comparison: HYBRID beats both
// the LOCAL-only Θ(D) bound and the NCC-only Ω~(n) bound on the same task
// (exact APSP).
func E11ModeComparison(cfg Config) Table {
	t := Table{
		ID:     "E11",
		Title:  "Mode comparison (§1): exact APSP under LOCAL-only / NCC-only / HYBRID",
		Header: []string{"graph", "n", "D", "LOCAL rounds", "NCC rounds", "HYBRID rounds", "exact"},
	}
	n := 100
	if !cfg.Quick {
		n = 256
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(n)},
		{"grid", graph.Grid(isqrt(n), isqrt(n))},
	}
	for _, gg := range graphs {
		g := gg.g
		d := int(graph.HopDiameter(g))

		// LOCAL-only: flood D rounds.
		localRounds, ok1 := runAPSPVariant(g, cfg, func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return hybridapsp.NewLocalComputeMachine(env, d, done)
		})
		// NCC-only: pipeline-broadcast all edges, compute locally.
		nccRounds, ok2 := runNCCOnlyAPSP(g, cfg.Seed)
		// HYBRID: Theorem 1.1.
		hybridRounds, ok3 := runAPSPVariant(g, cfg, func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return hybridapsp.NewComputeMachine(env, hybridapsp.Params{}, done)
		})
		t.Add(gg.name, fmt.Sprint(g.N()), fmt.Sprint(d),
			fmt.Sprint(localRounds), fmt.Sprint(nccRounds), fmt.Sprint(hybridRounds),
			fmt.Sprint(ok1 && ok2 && ok3))
		if !(ok1 && ok2 && ok3) {
			t.Failf("%s: some mode produced inexact APSP", gg.name)
		}
	}
	t.Notef("LOCAL needs Θ(D) (linear on paths); NCC-only needs Ω~(n) to move the topology; HYBRID is O~(sqrt n) — at these sizes its polylog constants still dominate, the asymptotic win shows in the growth rates (E3)")
	return t
}

func runNCCOnlyAPSP(g *graph.Graph, seed int64) (int, bool) {
	ell := g.MaxDegree() // each node owns its incident edges u < v plus slack
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, func(env *sim.Env, done func([]int64)) sim.StepProgram {
		var mine []ncc.Token
		for _, nb := range env.Neighbors() {
			if env.ID() < nb.To {
				mine = append(mine, ncc.Token{A: int64(env.ID()), B: int64(nb.To), C: nb.W})
			}
		}
		bc := ncc.NewPipelinedBroadcastMachine(env, mine, ell)
		return sim.Then(bc, func(env *sim.Env) {
			// Local computation from the fully replicated edge list.
			gg := graph.New(env.N())
			for _, tok := range bc.Out {
				if !gg.HasEdge(int(tok.A), int(tok.B)) {
					gg.MustAddEdge(int(tok.A), int(tok.B), tok.C)
				}
			}
			done(graph.Dijkstra(gg, env.ID()))
		})
	})
	if err != nil {
		return 0, false
	}
	return m.Rounds, exactAPSP(g, out)
}
