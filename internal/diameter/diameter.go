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
// simulate A on it to get D~(S); explore the local graph for ηh+1 rounds,
// which (I) spreads D~(S) to everyone and (II) lets each node measure h_v,
// the largest hop distance it sees; aggregate ĥ = max_v h_v over the global
// network (Lemma B.2); output D~ = ĥ if ĥ <= ηh (the diameter was small
// enough to measure exactly), else D~(S) + 2h (Equation 3).
package diameter

import (
	"math"

	"repro/internal/clique"
	"repro/internal/cliquesim"
	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/ncc"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// diamFlood carries D~(S) from skeleton nodes through the local network.
type diamFlood struct {
	Value int64
	TTL   int
}

// hopWave is the all-sources BFS payload of the h_v measurement.
type hopWave struct {
	Source int
	Hops   int
}

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

// diamExploreMachine runs `rounds` rounds of local flooding that both
// measures the largest hop distance seen (h_v, via an all-sources BFS wave)
// and spreads the skeleton's diameter estimate with a TTL. MyDS (the best
// D~(S) heard) and Hv are valid once Step returned true.
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

// NewComputeMachine runs Algorithm 9 collectively (see sim.StepProgram);
// the nodes of the algorithm spec.Factory builds must implement
// clique.DiameterNode (its srcIdx argument is empty). done receives this node's diameter estimate D~ with
// D <= D~ <= (α + 2/η + β/T_B)·D w.h.p. on unweighted graphs (Theorem 5.1)
// when the machine finishes.
func NewComputeMachine(env *sim.Env, spec kssp.AlgSpec, params kssp.Params, done func(int64)) sim.StepProgram {
	n := env.N()
	sp, h, etaRounds := spec.Plan(params, n)

	var skelM *skeleton.ComputeMachine
	var simRes cliquesim.Result
	var explore *diamExploreMachine
	var myDS int64
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
				func(r cliquesim.Result) { simRes = r })
		},
		// Local exploration for ηh+1 rounds: flood D~(S) (every node has a
		// skeleton node within h <= ηh hops w.h.p.) and measure h_v, the
		// largest hop distance seen in the (ηh+1)-neighborhood. Both ride
		// the same exploration: the all-sources wave yields hop distances,
		// and the skeleton nodes' D~(S) flood is piggybacked with a TTL.
		func(env *sim.Env) sim.StepProgram {
			rounds := etaRounds + 1
			var diamMsgs []interface{}
			if dS := skeletonDiameter(simRes); dS >= 0 {
				diamMsgs = append(diamMsgs, diamFlood{Value: dS, TTL: rounds})
			}
			explore = newDiamExploreMachine(env, rounds, diamMsgs)
			return explore
		},
		// ĥ = max_v h_v via the Lemma B.2 aggregation, and the final rule of
		// Equation (3). D~(S) is also aggregated (max) so that nodes that
		// missed the flood (coverage failure) still answer consistently.
		func(env *sim.Env) sim.StepProgram {
			myDS = explore.MyDS
			aggH = ncc.NewAggregateMachine(env, int64(explore.Hv), ncc.AggMax)
			return aggH
		},
		func(env *sim.Env) sim.StepProgram {
			aggDS = ncc.NewAggregateMachine(env, myDS, ncc.AggMax)
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
// against the sequential ground truth; used by tests and the harness.
func CheckEstimate(g *graph.Graph, estimate int64, bound float64) (int64, bool) {
	d := graph.HopDiameter(g)
	if d == 0 {
		return d, estimate == 0
	}
	return d, estimate >= d && float64(estimate) <= bound*float64(d)
}
