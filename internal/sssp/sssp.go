// Package sssp provides the single-source shortest path baselines the
// paper's results are measured against (§1's model comparison and the
// Theorem 1.3 discussion):
//
//   - Local: distributed Bellman-Ford over the LOCAL mode only — exact
//     after SPD(G) rounds (the quantity in [3]'s O~(sqrt(SPD)) algorithm
//     that Theorem 1.3 improves on for large-SPD graphs), and the Θ(D)
//     flooding behavior of any LOCAL-only algorithm.
//   - The HYBRID algorithms themselves live in package kssp
//     (Corollary 4.9 / RealBFSingleSource).
package sssp

import (
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// NewLocalMachine runs `rounds` rounds of LOCAL-mode Bellman-Ford from the
// source; done receives this node's distance estimate (graph.Inf if
// unreached). Exact when rounds >= SPD(G). Collective.
func NewLocalMachine(env *sim.Env, isSource bool, rounds int, done func(int64)) sim.StepProgram {
	explore := skeleton.NewExploreMachine(env, isSource, rounds)
	return sim.Then(explore, func(*sim.Env) {
		if isSource {
			done(0)
			return
		}
		best := graph.Inf
		for _, d := range explore.Near {
			if d < best {
				best = d
			}
		}
		done(best)
	})
}

// NewLocalAllMachine is the k-source variant: done receives the dense vector
// holding the estimate per source node (graph.Inf for sources out of reach,
// and for non-sources).
func NewLocalAllMachine(env *sim.Env, isSource bool, rounds int, done func([]int64)) sim.StepProgram {
	explore := skeleton.NewExploreMachine(env, isSource, rounds)
	return sim.Then(explore, func(*sim.Env) { done(explore.Near) })
}
