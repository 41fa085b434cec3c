package diameter

import (
	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/ncc"
	"repro/internal/sim"
)

// NewWeightedApproxMachine computes a 2(1+o(1))-approximation of the WEIGHTED
// diameter max_{u,v} d(u,v) — the upper bound the paper notes in §1.1
// (footnote 6): the eccentricity e(v) = max_u d(u,v) of any node satisfies
// D_w/2 <= e(v) <= D_w, so one SSSP run plus a global max-aggregation
// yields D~ = 2·e~ with D_w <= D~ <= 2(1+eps)·D_w.
//
// spec selects the SSSP engine: kssp.Corollary49() (exact, O~(n^(2/5)))
// reproduces the clean factor-2 bound; the paper's cited O~(n^(1/3))
// variant corresponds to a (1+o(1))-approximate SSSP oracle.
// Collective; done receives the same estimate at every node.
func NewWeightedApproxMachine(env *sim.Env, spec kssp.AlgSpec, params kssp.Params, done func(int64)) sim.StepProgram {
	// SSSP from node 0 (any fixed node works for the eccentricity bound).
	src := 0
	var mine int64
	var agg *ncc.AggregateMachine
	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			return kssp.NewComputeMachine(env, env.ID() == src, 1, spec, params,
				func(res []kssp.SourceDist) {
					for _, sd := range res {
						if sd.Source == src && sd.Dist < graph.Inf {
							mine = sd.Dist
						}
					}
				})
		},
		// e~(src) = max over v of d~(v, src), then D~ = 2·e~ (Lemma B.2
		// aggregation, O(log n) rounds).
		func(env *sim.Env) sim.StepProgram {
			agg = ncc.NewAggregateMachine(env, mine, ncc.AggMax)
			return agg
		},
		sim.Finish(func(env *sim.Env) { done(2 * agg.Out) }),
	)
}

// WeightedApproxPipeline returns the factor-2 weighted diameter
// approximation as a sim.Pipeline.
func WeightedApproxPipeline(spec kssp.AlgSpec, params kssp.Params) sim.Pipeline[int64] {
	return func(env *sim.Env, done func(int64)) sim.StepProgram {
		return NewWeightedApproxMachine(env, spec, params, done)
	}
}
