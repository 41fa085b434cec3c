package kssp

import (
	"math"

	"repro/internal/clique"
)

// This file wires the paper's corollaries: each constructor returns the
// AlgSpec of the CLIQUE algorithm the corollary plugs into Theorem 4.1.
// Published algorithms we did not reimplement (fast matrix multiplication,
// hopset-based SSSP) are represented by the declared-cost oracle at their
// published (δ, η, α, β); the semiring MM and Bellman-Ford variants run
// with real messages.

// Rho is the distributed matrix multiplication exponent bound ρ < 0.15715
// of Censor-Hillel et al. [8] (via ω < 2.3728639).
const Rho = 0.15715

// Corollary46 returns the spec of [7] Theorem 1.2 at γ = 1/2: runtime
// O~(1/ε) (δ = 0), approximation (1+ε). Theorem 4.1 turns it into the
// n^(1/3)-source HYBRID algorithm with (3+ε) weighted / (1+ε) unweighted
// quality in O~(n^(1/3)/ε) rounds.
func Corollary46(eps float64, perturbSeed int64) AlgSpec {
	return AlgSpec{
		Delta: 0,
		Eta:   math.Max(1, 1/eps),
		Factory: func(q int, srcIdx []int) clique.Algorithm {
			return clique.NewOracle(q, srcIdx,
				clique.CostModel{Delta: 0, Eta: 1 / eps},
				clique.Quality{Alpha: 1 + eps, PerturbSeed: perturbSeed}, false)
		},
	}
}

// Corollary47 returns the spec of [7] Theorem 1.1 (APSP, δ = 0,
// (2+ε, (1+ε)w_uv)): since (1+ε)w_uv <= (1+ε)d(u,v), the paper folds the
// additive error into the multiplicative one, making A a (3+2ε)-
// approximation. Theorem 4.1 + Lemma 4.4 give arbitrary k sources with
// (7+ε) weighted / (2+ε) unweighted quality in O~(n^(1/3)/ε + sqrt(k)).
func Corollary47(eps float64, perturbSeed int64) AlgSpec {
	return AlgSpec{
		Delta: 0,
		Eta:   math.Max(1, 1/eps),
		Factory: func(q int, srcIdx []int) clique.Algorithm {
			return clique.NewOracle(q, nil, // APSP: all skeleton nodes are sources
				clique.CostModel{Delta: 0, Eta: 1 / eps},
				clique.Quality{Alpha: 3 + 2*eps, PerturbSeed: perturbSeed}, false)
		},
	}
}

// Corollary48 returns the spec of [8]'s ρ-exponent APSP (δ = ρ < 0.15715,
// (1+o(1))-approximation): Theorem 4.1 gives k-SSP with (3+o(1)) weighted /
// (1+ε) unweighted quality in O~(n^0.397 + sqrt(k)).
func Corollary48(eps float64, perturbSeed int64) AlgSpec {
	return AlgSpec{
		Delta: Rho,
		Eta:   math.Max(1, 1/eps),
		Factory: func(q int, srcIdx []int) clique.Algorithm {
			return clique.NewOracle(q, nil,
				clique.CostModel{Delta: Rho, Eta: 1},
				clique.Quality{Alpha: 1 + eps, PerturbSeed: perturbSeed}, false)
		},
	}
}

// Corollary49 returns the spec of [7] Theorem 5.2 (exact CLIQUE SSSP in
// O~(q^(1/6))): with Lemma 4.5's single-source handling, Theorem 4.1 gives
// Theorem 1.3 — exact HYBRID SSSP in O~(n^(2/5)) rounds
// (x = 2/(3+2/6) = 3/5, runtime exponent 1-x = 2/5).
func Corollary49() AlgSpec {
	return AlgSpec{
		Delta:        1.0 / 6.0,
		Eta:          1,
		SingleSource: true,
		Factory: func(q int, srcIdx []int) clique.Algorithm {
			return clique.NewOracle(q, srcIdx,
				clique.CostModel{Delta: 1.0 / 6.0, Eta: 1},
				clique.Quality{Alpha: 1}, false)
		},
	}
}

// RealMM returns a fully message-passing instantiation: the semiring matrix
// multiplication APSP (δ = 1/3, exact). Theorem 4.1 then yields exact
// distances to the representatives, i.e. a (3) weighted / (1+2/η)
// unweighted k-SSP, at x = 6/11.
func RealMM(eta float64) AlgSpec {
	return AlgSpec{
		Delta: 1.0 / 3.0,
		Eta:   math.Max(1, eta),
		Factory: func(q int, srcIdx []int) clique.Algorithm {
			return clique.NewMM(q, false)
		},
	}
}

// RealBFSingleSource returns a fully message-passing exact SSSP
// instantiation via clique Bellman-Ford (δ = 1 worst case; fast when the
// skeleton hop diameter is small).
func RealBFSingleSource() AlgSpec {
	return AlgSpec{
		Delta:        1,
		Eta:          1,
		SingleSource: true,
		Factory: func(q int, srcIdx []int) clique.Algorithm {
			return clique.NewBellmanFord(q, srcIdx, 0)
		},
	}
}
