package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/helpers"
	"repro/internal/hybridapsp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// Ablations for the design choices DESIGN.md documents as deviations or
// tunings of the paper's constants. Each shows why the default was chosen.

// A1HelperQBoost ablates the helper-sampling boost (paper: q = 2µ/|C|;
// default here: QBoost=2, i.e. q = 4µ/|C|, plus the deterministic
// self-join): lower boosts shrink the smallest helper set below µ, which
// breaks property (1) of Definition 2.1 at small n.
func A1HelperQBoost(cfg Config) Table {
	t := Table{
		ID:     "A1",
		Title:  "Ablation: helper-set sampling boost (Lemma 2.2 constants)",
		Header: []string{"QBoost", "min |H_w| (sampled)", "avg |H_w|", "max load", "property-1 ok"},
	}
	n := 144
	if cfg.Quick {
		n = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	g := graph.SparseConnected(n, 1.0, rng)
	inW := make([]bool, n)
	wrng := rand.New(rand.NewSource(cfg.Seed + 43))
	for i := range inW {
		inW[i] = wrng.Float64() < 0.2
	}
	const mu = 4
	for _, boost := range []int{1, 2, 3} {
		results, _, err := sim.RunPipeline(g, sim.Config{Seed: cfg.Seed}, helpers.Pipeline(inW, mu, helpers.Params{QBoost: boost}))
		if err != nil {
			t.Failf("boost=%d: %v", boost, err)
			continue
		}
		minH, avgH, maxLoad, sampledOK := qboostStats(results, inW, mu)
		t.Add(fmt.Sprint(boost), fmt.Sprint(minH), fmt.Sprintf("%.1f", avgH),
			fmt.Sprint(maxLoad), fmt.Sprint(sampledOK))
	}
	t.Notef("'sampled' counts exclude the deterministic self-join; mu = %d. The default QBoost=2 keeps sampled sets >= mu at laptop-scale n", mu)
	return t
}

func qboostStats(results []helpers.Result, inW []bool, mu int) (int, float64, int, bool) {
	hw := map[int]int{}
	maxLoad := 0
	for x := range results {
		if l := len(results[x].Helps); l > maxLoad {
			maxLoad = l
		}
		for _, w := range results[x].Helps {
			if w != x { // exclude self-joins to see the raw sampling
				hw[w]++
			}
		}
	}
	minH, total, count := 1<<30, 0, 0
	for w, in := range inW {
		if !in {
			continue
		}
		c := hw[w]
		if c < minH {
			minH = c
		}
		total += c
		count++
	}
	if count == 0 {
		return 0, 0, maxLoad, true
	}
	return minH, float64(total) / float64(count), maxLoad, minH >= mu
}

// A2GlobalSendFactor ablates the global-mode cap multiplier: the model
// grants O(log n) messages per round; a larger multiplier shortens the
// token-bound phases proportionally without changing correctness —
// quantifying how much of the round count is bandwidth-bound.
func A2GlobalSendFactor(cfg Config) Table {
	t := Table{
		ID:     "A2",
		Title:  "Ablation: global send cap multiplier (bandwidth-boundness)",
		Header: []string{"factor", "APSP rounds", "speedup vs 1x", "exact"},
	}
	n := 100
	if !cfg.Quick {
		n = 144
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 47))
	g := graph.SparseConnected(n, 1.2, rng)
	want := graph.APSP(g)
	base := 0
	for _, factor := range []int{1, 2, 4} {
		out, m, err := sim.RunPipeline(g, sim.Config{Seed: cfg.Seed, GlobalSendFactor: factor}, hybridapsp.Pipeline(hybridapsp.Params{}))
		if err != nil {
			t.Failf("factor=%d: %v", factor, err)
			continue
		}
		exact := matches(out, want)
		if factor == 1 {
			base = m.Rounds
		}
		speed := "1.00"
		if base > 0 {
			speed = fmt.Sprintf("%.2f", float64(base)/float64(m.Rounds))
		}
		t.Add(fmt.Sprint(factor), fmt.Sprint(m.Rounds), speed, fmt.Sprint(exact))
		if !exact {
			t.Failf("factor=%d: APSP inexact", factor)
		}
	}
	t.Notef("sub-linear speedup shows the run is dominated by the local exploration and ruling-set phases, not global bandwidth, at these n")
	return t
}

func matches(out, want [][]int64) bool {
	for u := range want {
		for v := range want[u] {
			if out[u][v] != want[u][v] {
				return false
			}
		}
	}
	return true
}

// A3SkeletonHFactor ablates the Lemma C.1 constant ξ (h = ξ·n^(1-x)·ln n):
// ξ = 1 leaves the per-position gap probability at ~1/n, so coverage fails
// with constant probability over n positions — the reason the repository
// defaults to ξ = 2.
func A3SkeletonHFactor(cfg Config) Table {
	t := Table{
		ID:     "A3",
		Title:  "Ablation: skeleton exploration constant ξ (Lemma C.1 coverage)",
		Header: []string{"xi", "seeds", "coverage failures", "skeleton disconnects", "APSP rounds (last)"},
	}
	n := 144
	if cfg.Quick {
		n = 100
	}
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	for _, xi := range []float64{1, 2, 3} {
		covFail, disc, lastRounds := 0, 0, 0
		worstMargin := 0.0 // max skeleton gap / h over all seeds (1 = failure)
		for _, seed := range seeds {
			g := graph.Path(n) // paths are the coverage worst case
			sp := skeleton.Params{X: 0.5, HFactor: xi}
			results, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, skeleton.Pipeline(sp, nil))
			if err != nil {
				t.Failf("xi=%.0f seed=%d: %v", xi, seed, err)
				continue
			}
			lastRounds = m.Rounds
			if skeleton.CheckCoverage(results) != nil {
				covFail++
			}
			if err := skeleton.CheckDistancePreservation(g, results); err != nil {
				disc++
			}
			if margin := pathGapMargin(results, sp.H(n)); margin > worstMargin {
				worstMargin = margin
			}
		}
		t.Add(fmt.Sprintf("%.0f", xi), fmt.Sprint(len(seeds)), fmt.Sprint(covFail),
			fmt.Sprintf("%d (margin %.2f)", disc, worstMargin), fmt.Sprint(lastRounds))
	}
	t.Notef("rounds scale linearly with ξ while failures vanish; ξ=2 is the smallest reliable choice (per-gap miss probability n^-ξ, union over Θ(n) positions)")
	t.Notef("margin = largest skeleton gap on the path divided by h; 1.0 means disconnection — ξ=1 runs close to the edge")
	return t
}

// pathGapMargin returns (largest gap between consecutive skeleton positions
// on a path graph) / h.
func pathGapMargin(results []skeleton.Result, h int) float64 {
	prev := -1
	maxGap := 0
	for v, r := range results {
		if !r.InSkeleton {
			continue
		}
		if prev >= 0 && v-prev > maxGap {
			maxGap = v - prev
		}
		prev = v
	}
	return float64(maxGap) / float64(h)
}

// A4HashIndependence ablates the k-wise-independence parameter of the
// intermediate-choosing hash (Lemma D.2 wants k = Θ(log n)): receive load
// stays logarithmic across factors, confirming the Θ(log n) choice is not
// under-provisioned.
func A4HashIndependence(cfg Config) Table {
	t := Table{
		ID:     "A4",
		Title:  "Ablation: hash independence factor (Lemma D.2)",
		Header: []string{"k factor", "max recv", "max recv/logn", "delivered"},
	}
	n := 144
	if cfg.Quick {
		n = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	g := graph.SparseConnected(n, 1.2, rng)
	specs, _, _, _ := buildRoutingInstance(n, 0.25, 0.25, 6, rng)
	for _, factor := range []int{1, 3, 6} {
		got, m, err := sim.RunPipeline(g, sim.Config{Seed: cfg.Seed}, routing.Pipeline(specs, routing.Params{HashKFactor: factor}))
		if err != nil {
			t.Failf("factor=%d: %v", factor, err)
			continue
		}
		delivered := true
		for v := 0; v < n; v++ {
			if len(got[v]) != len(specs[v].Expect) {
				delivered = false
			}
		}
		logN := sim.Log2Ceil(n)
		t.Add(fmt.Sprint(factor), fmt.Sprint(m.MaxGlobalRecv),
			fmt.Sprintf("%.2f", float64(m.MaxGlobalRecv)/float64(logN)), fmt.Sprint(delivered))
		if !delivered {
			t.Failf("factor=%d: delivery incomplete", factor)
		}
	}
	t.Notef("the load bound is insensitive to raising k beyond Θ(log n), as Remark A.1 predicts")
	return t
}

// Ablations runs all ablation tables.
func Ablations(cfg Config) []Table {
	return []Table{
		A1HelperQBoost(cfg),
		A2GlobalSendFactor(cfg),
		A3SkeletonHFactor(cfg),
		A4HashIndependence(cfg),
	}
}
