// Package diameter implements the paper's §5: computing the (unweighted)
// diameter D(G) in the HYBRID model by simulating CLIQUE diameter
// algorithms on a skeleton graph (Theorem 5.1, Algorithm 9
// "Diam-Simulation") and the corollaries instantiating it:
//
//   - Corollary 5.2: (3/2+ε)-approximation in O~(n^(1/3)/ε) via the
//     (3/2+ε, W)-approximation CLIQUE algorithm of [7] (δ = 0).
//   - Corollary 5.3: (1+ε)-approximation in O~(n^0.397/ε) via the
//     ρ-exponent APSP of [8].
//
// Algorithm 9 shares Algorithm 5's framework, so it runs on kssp's AlgSpec,
// Params, Plan and CliqueFactory: build a skeleton with x = 2/(3+2δ);
// simulate A on it to get D~(S) at the skeleton nodes; flood every node's ID
// for ηh+1 rounds (package flood), so each node measures h_v, the largest
// hop distance at which it first hears an ID; aggregate ĥ = max_v h_v and
// D~(S) over the global network (Lemma B.2), which is how D~(S) reaches
// every node; output D~ = ĥ if ĥ <= ηh (the diameter was small enough to
// measure exactly), else D~(S) + 2h (Equation 3).
package diameter

import (
	"math"

	"repro/internal/clique"
	"repro/internal/cliquesim"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/ncc"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// skeletonDiameter reads D~(S) out of a member's finished CLIQUE node
// (-1 for non-members).
func skeletonDiameter(simRes cliquesim.Result) int64 {
	if simRes.Node != nil {
		if dn, ok := simRes.Node.(clique.DiameterNode); ok {
			return dn.Diameter()
		}
	}
	return -1
}

// estimate applies Equation (3)'s final rule to the aggregated ĥ and
// D~(S).
func estimate(hHat, dSGlobal int64, h, etaRounds int) int64 {
	if hHat <= int64(etaRounds) {
		return hHat
	}
	return dSGlobal + 2*int64(h)
}

// newHopFlood is Algorithm 9's exploration from every node for `rounds`
// rounds, a first-arrival flood of the node IDs charged as the exploration's
// record (source, distance, hop count). Once it finishes, *hv is the hop of
// this node's last first arrival: its hop eccentricity capped at rounds.
func newHopFlood(env *sim.Env, rounds int, hv *int32) sim.StepProgram {
	f, start := new(flood.State[struct{}]), env.Round()
	f.Start(env, env.N(), 0, rounds, func(struct{}) int64 { return 3 },
		func(int, struct{}) { *hv = int32(env.Round() - start) })
	f.Inject(env.ID(), struct{}{})
	return f
}

// NewComputeMachine runs Algorithm 9 collectively (see sim.StepProgram);
// the nodes of the algorithm spec.Factory builds must implement
// clique.DiameterNode (its srcIdx argument is empty). done receives this node's diameter estimate D~ with
// D <= D~ <= (α + 2/η + β/T_B)·D w.h.p. on unweighted graphs (Theorem 5.1)
// when the machine finishes.
func NewComputeMachine(env *sim.Env, spec kssp.AlgSpec, params kssp.Params, done func(int64)) sim.StepProgram {
	n := env.N()
	sp, h, etaRounds := spec.Plan(params, n)

	var skelM *skeleton.ComputeMachine
	var dS int64
	var hv int32
	var aggH, aggDS *ncc.AggregateMachine

	return sim.Sequence(
		// Skeleton and CLIQUE simulation: members learn D~(S).
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, false)
			return skelM
		},
		func(env *sim.Env) sim.StepProgram {
			return cliquesim.NewSimulateMachine(env, skelM.Res, sp.SampleProb(n),
				kssp.CliqueFactory(env, spec, nil), params.Routing,
				func(r cliquesim.Result) { dS = skeletonDiameter(r) })
		},
		func(env *sim.Env) sim.StepProgram { return newHopFlood(env, etaRounds+1, &hv) },
		// ĥ = max_v h_v via the Lemma B.2 aggregation, then D~(S), which
		// only the members hold, by the same max (the others bring -1), and
		// the final rule of Equation (3).
		func(env *sim.Env) sim.StepProgram {
			aggH = ncc.NewAggregateMachine(env, int64(hv), ncc.AggMax)
			return aggH
		},
		func(env *sim.Env) sim.StepProgram {
			aggDS = ncc.NewAggregateMachine(env, dS, ncc.AggMax)
			return aggDS
		},
		sim.Finish(func(env *sim.Env) {
			done(estimate(aggH.Out, aggDS.Out, h, etaRounds))
		}),
	)
}

// Pipeline returns Algorithm 9 as a sim.Pipeline; the per-node result is
// the node's diameter estimate (all nodes agree on consistent runs, which
// the facade checks).
func Pipeline(spec kssp.AlgSpec, params kssp.Params) sim.Pipeline[int64] {
	return func(env *sim.Env, done func(int64)) sim.StepProgram {
		return NewComputeMachine(env, spec, params, done)
	}
}

// Corollary52 returns the spec reproducing the (3/2+ε)-approximation in
// O~(n^(1/3)/ε): the CLIQUE algorithm of [7] has (α, β) = (3/2+ε, W) and
// δ = 0. The declared-cost oracle emits the exact skeleton diameter, which
// satisfies the (3/2+ε, W) envelope; perturbSeed != 0 stresses the
// envelope's worst case.
func Corollary52(eps float64, perturbSeed int64) kssp.AlgSpec {
	return kssp.AlgSpec{
		Delta: 0,
		Eta:   math.Max(1, 1/eps),
		Factory: func(q int, _ []int) clique.Algorithm {
			return clique.NewOracle(q, nil,
				clique.CostModel{Delta: 0, Eta: 1 / eps},
				clique.Quality{Alpha: 1.5 + eps, PerturbSeed: perturbSeed}, true)
		},
	}
}

// Corollary53 returns the spec reproducing the (1+ε)-approximation in
// O~(n^0.397/ε) via [8]'s ρ-exponent APSP (α = 1+o(1), β = 0).
func Corollary53(eps float64, perturbSeed int64) kssp.AlgSpec {
	return kssp.AlgSpec{
		Delta: kssp.Rho,
		Eta:   math.Max(1, 1/eps),
		Factory: func(q int, _ []int) clique.Algorithm {
			return clique.NewOracle(q, nil,
				clique.CostModel{Delta: kssp.Rho, Eta: 1},
				clique.Quality{Alpha: 1 + eps, PerturbSeed: perturbSeed}, true)
		},
	}
}

// RealMM returns a fully message-passing instantiation: exact skeleton
// diameter via semiring MM APSP plus a max-broadcast round (δ = 1/3,
// α = 1), giving a (1 + 2/η)-approximation end to end.
func RealMM(eta float64) kssp.AlgSpec {
	return kssp.AlgSpec{
		Delta: 1.0 / 3.0,
		Eta:   math.Max(1, eta),
		Factory: func(q int, _ []int) clique.Algorithm {
			return clique.NewMM(q, true)
		},
	}
}

// CheckEstimate verifies D <= D~ <= bound*D (+slack for tiny diameters)
// against the sequential ground truth; used by tests.
func CheckEstimate(g *graph.Graph, estimate int64, bound float64) (int64, bool) {
	d := graph.HopDiameter(g)
	if d == 0 {
		return d, estimate == 0
	}
	return d, estimate >= d && float64(estimate) <= bound*float64(d)
}
