// lowerbound walks through the Theorem 1.6 machinery: it builds the
// Figure 2 family Γ^{a,b} for set-disjointness instances, machine-checks
// the diameter dichotomy of Lemmas 7.1/7.2, runs a real HYBRID diameter
// algorithm on both a disjoint and an intersecting instance, and reports
// the global traffic crossing the Alice/Bob simulation cut — the
// information bottleneck behind the Ω~(n^(1/3)) bound.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/diameter"
	"repro/internal/kssp"
	"repro/internal/lowerbound"
	"repro/internal/sim"
)

func main() {
	const k, l = 4, 6
	p := lowerbound.GammaParams{K: k, L: l, W: int64(l) + 1}
	rng := rand.New(rand.NewSource(3))

	fmt.Printf("Gamma family: k=%d (k^2 = %d disjointness bits), l=%d, W=%d, n=%d\n",
		k, p.Bits(), l, p.W, p.N())

	// Weighted dichotomy (Lemma 7.1) on random instances.
	for _, intersect := range []bool{false, true} {
		a, b := lowerbound.RandomInstance(p.Bits(), 0.3, intersect, rng)
		if err := lowerbound.VerifyLemma71(p, a, b); err != nil {
			log.Fatalf("Lemma 7.1 FAILED: %v", err)
		}
		gm, _ := lowerbound.BuildGamma(p, a, b)
		fmt.Printf("  DISJ=%v: weighted diameter dichotomy verified (thresholds %d vs %d)\n",
			!intersect, p.W+2*int64(l), 2*p.W+int64(l))
		_ = gm
	}
	// Unweighted dichotomy (Lemma 7.2).
	a, b := lowerbound.RandomInstance(p.Bits(), 0.3, false, rng)
	if err := lowerbound.VerifyLemma72(k, l, a, b); err != nil {
		log.Fatalf("Lemma 7.2 FAILED: %v", err)
	}
	fmt.Printf("  unweighted dichotomy verified: D = l+1 iff DISJ, else l+2\n\n")

	// Run the real (3/2+eps) diameter algorithm on an unweighted Γ and
	// count the global bits crossing the Alice/Bob column cut (Lemma 7.3's
	// simulation boundary).
	for _, intersect := range []bool{false, true} {
		ai, bi := lowerbound.RandomInstance(p.Bits(), 0.3, intersect, rng)
		gm, err := lowerbound.BuildGamma(lowerbound.GammaParams{K: k, L: l, W: 1}, ai, bi)
		if err != nil {
			log.Fatal(err)
		}
		est, m, err := sim.RunPipeline(gm.G, sim.Config{Seed: 5, Cut: gm.AliceCut()},
			diameter.Pipeline(diameter.Corollary52(0.5, 0), kssp.Params{}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DISJ=%v: algorithm's estimate %d (true %d or %d), %d rounds, %d global bits crossed the cut\n",
			!intersect, est[0], l+1, l+2, m.Rounds, m.CutGlobalBits)
	}
	fmt.Printf("\nany algorithm distinguishing the two cases solves DISJ over %d bits;\n", p.Bits())
	fmt.Printf("scaled up (Theorem 1.6), that forces Omega((n/log^2 n)^(1/3)) rounds = %.1f at n = 10^6\n",
		lowerbound.DiameterRoundLB(1_000_000))
}
