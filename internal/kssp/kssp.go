// Package kssp implements the paper's §4: the framework that turns CLIQUE
// shortest-path algorithms into HYBRID k-source shortest-path algorithms
// (Theorem 4.1, Algorithm 5 "SP-Simulation"), and the corollaries
// instantiating it (Corollaries 4.6-4.9, including Theorem 1.3's exact
// SSSP in O~(n^(2/5)) rounds).
//
// Algorithm 5, for a CLIQUE algorithm A with runtime O~(η q^δ) and
// (α, β)-approximation quality:
//
//	x ← 2/(3+2δ)                      // optimizes simulation vs. exploration
//	Compute-Skeleton(γ, x)            // package skeleton; single sources join V_S
//	Compute-Representatives           // Algorithm 7: sources tag the closest
//	                                  // skeleton node; triples become public
//	Clique-Simulation(A, x)           // package cliquesim (Corollary 4.1)
//	local exploration for ηh rounds   // exact distances for close pairs
//	combine with Equation (1)
//
// Guarantees (Theorem 4.1): runtime O~(η n^(1-x)); weighted approximation
// (2α+1+β/T_B); unweighted (α+2/η+β/T_B); +O~(sqrt k) rounds when A solves
// APSP and k sources are arbitrary; exact factor (α+β/T_B) for single
// sources (the source is summoned into the skeleton, Lemma 4.5).
package kssp

import (
	"math"

	"repro/internal/clique"
	"repro/internal/cliquesim"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// AlgSpec characterizes the CLIQUE algorithm A plugged into the framework,
// in the terms of Theorem 4.1; Theorem 5.1's diameter algorithms (package
// diameter) are specs of the same shape.
type AlgSpec struct {
	// Delta is A's runtime exponent δ (sets x = 2/(3+2δ)).
	Delta float64
	// Eta is A's runtime scale η >= 1; it also sets the local exploration
	// depth ηh (clamped to n).
	Eta float64
	// SingleSource marks γ = 0: the source joins the skeleton directly
	// (Lemma 4.5) and no representative detour occurs.
	SingleSource bool
	// Factory builds A for a skeleton of size q whose source indices (in
	// clique index space) are srcIdx; CliqueFactory calls it once per run.
	Factory func(q int, srcIdx []int) clique.Algorithm
}

// Params tunes the framework run; the zero value follows the paper.
type Params struct {
	// Routing tunes the token routing sessions of the CLIQUE simulation.
	Routing routing.Params
	// MaxEtaRounds caps the ηh local exploration (0 = n).
	MaxEtaRounds int
}

// SourceDist is one output entry: the estimated distance to a source.
type SourceDist struct {
	Source int
	Dist   int64
}

// Plan resolves the framework's derived parameters: the skeleton params at
// x = 2/(3+2δ), the exploration depth h, and the ηh local exploration
// rounds (clamped to n and to params.MaxEtaRounds). Algorithm 9 (package
// diameter) runs on the same plan.
func (spec AlgSpec) Plan(params Params, n int) (sp skeleton.Params, h, etaRounds int) {
	sp = skeleton.Params{X: 2 / (3 + 2*spec.Delta)}
	h = sp.H(n)
	etaRounds = int(math.Ceil(spec.Eta * float64(h)))
	if etaRounds < h {
		etaRounds = h
	}
	if etaRounds > n {
		etaRounds = n
	}
	if params.MaxEtaRounds > 0 && etaRounds > params.MaxEtaRounds {
		etaRounds = params.MaxEtaRounds
	}
	return sp, h, etaRounds
}

// CliqueFactory wraps spec.Factory as the CLIQUE-simulation factory. The
// sources of the simulated problem are the representatives reps (nil for
// Algorithm 9, whose algorithm has none), translated to clique indices
// inside the factory once members are known. The algorithm instance is
// run-scoped (env.SharedOnce): every node would construct the identical
// object from public knowledge, and the declared-cost oracle additionally
// requires a single pooled instance.
func CliqueFactory(env *sim.Env, spec AlgSpec, reps []skeleton.RepInfo) cliquesim.Factory {
	return func(q int, members []int) clique.Algorithm {
		v := env.SharedOnce("kssp.alg", func() interface{} {
			rank := make(map[int]int, len(members))
			for i, id := range members {
				rank[id] = i
			}
			srcIdx := make([]int, 0, len(reps))
			seen := map[int]bool{}
			for _, ri := range reps {
				if i, ok := rank[ri.Rep]; ok && !seen[i] {
					seen[i] = true
					srcIdx = append(srcIdx, i)
				}
			}
			return spec.Factory(q, srcIdx)
		})
		return v.(clique.Algorithm)
	}
}

// NewComputeMachine runs Algorithm 5 collectively (see sim.StepProgram):
// skeleton, representatives, CLIQUE simulation, ηh exploration, label
// flood, Equation (1). isSource marks this node as one of the sources;
// kBound is a globally known upper bound on the number of sources. done
// receives this node's estimates, sorted by source ID, when the machine
// finishes.
func NewComputeMachine(env *sim.Env, isSource bool, kBound int, spec AlgSpec, params Params, done func([]SourceDist)) sim.StepProgram {
	n := env.N()
	sp, h, etaRounds := spec.Plan(params, n)

	var skelM *skeleton.ComputeMachine
	var repsM *skeleton.RepresentativesMachine
	var exploreM *skeleton.ExploreMachine
	var floodM *skeleton.FloodVectorsMachine
	var simRes cliquesim.Result
	var local []skeleton.Heard

	return sim.Sequence(
		// Skeleton; single sources are summoned into it (Algorithm 6, γ=0).
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, isSource && spec.SingleSource)
			return skelM
		},
		// Representatives (Algorithm 7): public triples (source, rep, d_h).
		func(env *sim.Env) sim.StepProgram {
			repsM = skeleton.NewRepresentativesMachine(env, skelM.Res, isSource, kBound)
			return repsM
		},
		// CLIQUE simulation on the skeleton (Algorithm 8 / Corollary 4.1).
		func(env *sim.Env) sim.StepProgram {
			return cliquesim.NewSimulateMachine(env, skelM.Res, sp.SampleProb(n),
				CliqueFactory(env, spec, repsM.Out), params.Routing,
				func(r cliquesim.Result) { simRes = r })
		},
		// Local exploration to depth ηh with the sources as origins gives
		// the exact first term of Equation (1) for close pairs.
		func(env *sim.Env) sim.StepProgram {
			exploreM = skeleton.NewSparseExploreMachine(env, isSource, etaRounds)
			return exploreM
		},
		// Skeleton nodes flood their simulated estimates to radius h.
		func(env *sim.Env) sim.StepProgram {
			local = exploreM.Heard // all the flood's successor needs of the exploration
			floodM = skeleton.NewFloodVectorsMachine(env, simVector(simRes, repsM.Out), h)
			return floodM
		},
		sim.Finish(func(env *sim.Env) {
			done(combineEstimates(skelM.Res, repsM.Out, simRes, local, &floodM.Known))
		}),
	)
}

// Pipeline returns Algorithm 5 as a sim.Pipeline: isSource[v] marks the
// sources, kBound is the globally known bound on their number, and the
// per-node result is the node's estimates sorted by source ID.
func Pipeline(isSource []bool, kBound int, spec AlgSpec, params Params) sim.Pipeline[[]SourceDist] {
	return func(env *sim.Env, done func([]SourceDist)) sim.StepProgram {
		return NewComputeMachine(env, isSource[env.ID()], kBound, spec, params, done)
	}
}

// simVector extracts this node's simulated estimates d~(u, rep(s)) as the
// vector it floods in Algorithm 5's final loop (nil unless a member with
// results). Records are keyed by the source's position in the public reps
// list; the column of rep(s) in the node's output vector is found via the
// algorithm's Sources() (all nodes for APSP algorithms, the source index
// list otherwise).
func simVector(simRes cliquesim.Result, reps []skeleton.RepInfo) []int64 {
	if simRes.Index < 0 || simRes.Node == nil {
		return nil
	}
	dn, ok := simRes.Node.(clique.DistanceNode)
	if !ok {
		return nil
	}
	dists := dn.Distances()
	memberRank := make(map[int]int, len(simRes.Members))
	for i, id := range simRes.Members {
		memberRank[id] = i
	}
	col := map[int]int{}
	if da, ok := simRes.Alg.(clique.DistanceAlgorithm); ok {
		for ci, s := range da.Sources() {
			col[s] = ci
		}
	}
	vals := make([]int64, len(reps))
	for oi := range vals {
		vals[oi] = -1
	}
	count := 0
	for oi, ri := range reps {
		i, inClique := memberRank[ri.Rep]
		if !inClique {
			continue
		}
		c, hasCol := col[i]
		if !hasCol || c >= len(dists) {
			continue
		}
		vals[oi] = dists[c]
		count++
	}
	if count == 0 {
		return nil
	}
	return vals
}

// combineEstimates applies Equation (1):
// d~(v,s) = min(d_ηh(v,s), min_u d_h(v,u) + d~(u,r_s) + d_h(r_s,s)), where
// local is the ηh exploration's ID-sorted list of the sources heard.
func combineEstimates(skel skeleton.Result, reps []skeleton.RepInfo, simRes cliquesim.Result, local []skeleton.Heard, labels *skeleton.Labels) []SourceDist {
	out := make([]SourceDist, 0, len(reps))
	srcOrder := orderedSourceIndex(simRes, reps)
	for _, ri := range reps {
		best := graph.Inf
		if e, ok := skeleton.Find(local, ri.Source); ok {
			best = e.Dist
		}
		oi, hasRep := srcOrder[ri.Source]
		if hasRep {
			for _, u := range skel.Near {
				vec, ok := labels.Get(uint64(u.ID))
				if !ok {
					continue
				}
				if dv := vec[oi]; dv >= 0 {
					if cand := graph.SatAdd(u.Dist, graph.SatAdd(dv, ri.Dist)); cand < best {
						best = cand
					}
				}
			}
		}
		out = append(out, SourceDist{Source: ri.Source, Dist: best})
	}
	return out
}

// orderedSourceIndex maps source node ID -> its output index oi.
func orderedSourceIndex(simRes cliquesim.Result, reps []skeleton.RepInfo) map[int]int {
	out := make(map[int]int, len(reps))
	for oi, ri := range reps {
		if ri.Rep >= 0 {
			out[ri.Source] = oi
		}
	}
	return out
}
