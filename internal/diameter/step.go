package diameter

import (
	"repro/internal/cliquesim"
	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/ncc"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// Step-machine forms of the package's algorithms (see sim.StepProgram):
// NewComputeMachine ports Compute (Algorithm 9), NewWeightedApproxMachine
// ports WeightedApprox. Each is a faithful port of its goroutine twin —
// identical messages, randomness order, and round count — sharing the
// plan/factory/estimate helpers so the two forms cannot drift.

// diamExploreMachine is the step form of exploreWithDiameter: `rounds`
// rounds of local flooding measuring h_v via the all-sources hop wave
// while spreading D~(S) with a TTL. MyDS and Hv are valid once Step
// returned true.
type diamExploreMachine struct {
	MyDS int64
	Hv   int

	loop   sim.Loop
	seen   map[int]int
	outbox []interface{}
}

func newDiamExploreMachine(env *sim.Env, rounds int, initial []interface{}) *diamExploreMachine {
	m := &diamExploreMachine{MyDS: -1, seen: map[int]int{env.ID(): 0}}
	m.outbox = append(m.outbox, initial...)
	m.outbox = append(m.outbox, hopWave{Source: env.ID(), Hops: 0})
	m.loop = sim.Loop{
		Rounds:   rounds,
		NextSend: sim.Reactive,
		Send: func(env *sim.Env, i int) {
			for _, p := range m.outbox {
				env.BroadcastLocal(p)
			}
		},
		Recv: func(env *sim.Env, in sim.Inbox, i int) {
			var next []interface{}
			for _, lm := range in.Local {
				switch msg := lm.Payload.(type) {
				case hopWave:
					if _, ok := m.seen[msg.Source]; !ok {
						m.seen[msg.Source] = msg.Hops + 1
						if msg.Hops+1 > m.Hv {
							m.Hv = msg.Hops + 1
						}
						next = append(next, hopWave{Source: msg.Source, Hops: msg.Hops + 1})
					}
				case diamFlood:
					if msg.Value > m.MyDS {
						m.MyDS = msg.Value
						if msg.TTL > 1 {
							next = append(next, diamFlood{Value: msg.Value, TTL: msg.TTL - 1})
						}
					}
				}
			}
			m.outbox = next
		},
	}
	return m
}

// Step implements sim.StepProgram.
func (m *diamExploreMachine) Step(env *sim.Env) bool { return m.loop.Step(env) }

// NewComputeMachine is the step form of Compute (Algorithm 9). done
// receives this node's diameter estimate when the machine finishes.
func NewComputeMachine(env *sim.Env, spec AlgSpec, params Params, done func(int64)) sim.StepProgram {
	n := env.N()
	sp, h, etaRounds := spec.plan(params, n)

	var skelM *skeleton.ComputeMachine
	var simRes cliquesim.Result
	var explore *diamExploreMachine
	var aggH, aggDS *ncc.AggregateMachine

	return sim.Sequence(
		// Skeleton and CLIQUE simulation: members learn D~(S).
		func(env *sim.Env) sim.StepProgram {
			skelM = skeleton.NewComputeMachine(env, sp, false)
			return skelM
		},
		func(env *sim.Env) sim.StepProgram {
			return cliquesim.NewSimulateMachine(env, skelM.Res, sp.SampleProb(n),
				cliqueFactory(env, spec), params.Routing,
				func(r cliquesim.Result) { simRes = r })
		},
		// Local exploration for ηh+1 rounds: h_v wave + D~(S) flood.
		func(env *sim.Env) sim.StepProgram {
			rounds := etaRounds + 1
			var diamMsgs []interface{}
			if dS := skeletonDiameter(simRes); dS >= 0 {
				diamMsgs = append(diamMsgs, diamFlood{Value: dS, TTL: rounds})
			}
			explore = newDiamExploreMachine(env, rounds, diamMsgs)
			return explore
		},
		// ĥ and D~(S) aggregations (Lemma B.2), then Equation (3).
		func(env *sim.Env) sim.StepProgram {
			aggH = ncc.NewAggregateMachine(env, int64(explore.Hv), ncc.AggMax)
			return aggH
		},
		func(env *sim.Env) sim.StepProgram {
			aggDS = ncc.NewAggregateMachine(env, explore.MyDS, ncc.AggMax)
			return aggDS
		},
		sim.Finish(func(env *sim.Env) {
			done(estimate(aggH.Out, aggDS.Out, h, etaRounds))
		}),
	)
}

// NewWeightedApproxMachine is the step form of WeightedApprox: one SSSP
// run through the k-SSP machine, then the eccentricity-doubling
// aggregation. done receives the common estimate when the machine
// finishes.
func NewWeightedApproxMachine(env *sim.Env, spec kssp.AlgSpec, params kssp.Params, done func(int64)) sim.StepProgram {
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
		func(env *sim.Env) sim.StepProgram {
			agg = ncc.NewAggregateMachine(env, mine, ncc.AggMax)
			return agg
		},
		sim.Finish(func(env *sim.Env) { done(2 * agg.Out) }),
	)
}

// Pipeline returns Algorithm 9 as a sim.Pipeline; the per-node result is
// the node's diameter estimate (all nodes agree on consistent runs, which
// the facade checks).
func Pipeline(spec AlgSpec, params Params) sim.Pipeline[int64] {
	return sim.Pipeline[int64]{
		Run: func(env *sim.Env) int64 {
			return Compute(env, spec, params)
		},
		Machine: func(env *sim.Env, done func(int64)) sim.StepProgram {
			return NewComputeMachine(env, spec, params, done)
		},
	}
}

// WeightedApproxPipeline returns the factor-2 weighted diameter
// approximation as a sim.Pipeline.
func WeightedApproxPipeline(spec kssp.AlgSpec, params kssp.Params) sim.Pipeline[int64] {
	return sim.Pipeline[int64]{
		Run: func(env *sim.Env) int64 {
			return WeightedApprox(env, spec, params)
		},
		Machine: func(env *sim.Env, done func(int64)) sim.StepProgram {
			return NewWeightedApproxMachine(env, spec, params, done)
		},
	}
}
