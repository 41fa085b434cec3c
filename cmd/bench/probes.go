package main

import (
	"fmt"
	"math"
	"time"

	hybrid "repro"
	"repro/internal/clique"
	"repro/internal/cliquesim"
	"repro/internal/helpers"
	"repro/internal/ncc"
	"repro/internal/routing"
	"repro/internal/ruling"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// prober runs the per-layer probes of one traced run. Every probe calls a
// layer's public functions from outside, under a span, on the workload's
// own graph, engine and algorithm seed, checks what the layer returned, and
// stores its numbers in rec.Metrics.
type prober struct {
	c    *config
	rec  *record
	tr   *tracer
	root int // span the probes hang under
	g    *hybrid.Graph
	cfg  sim.Config
}

func (p *prober) set(name, unit string, v float64) {
	p.rec.Metrics[name] = sample{Value: v, Unit: unit}
}

// check counts one probe as an attempted operation that failed if err != nil.
func (p *prober) check(name string, err error) {
	r := opResult{attempted: 1}
	if err != nil {
		r.fail("probe %s: %v", name, err)
	}
	p.rec.absorb(r)
}

// span times f under a span of the given name.
func (p *prober) span(name string, f func()) cost {
	id := p.tr.begin(p.root, 0, name)
	c := measure(f)
	p.tr.end(id)
	return c
}

// layerRun is one standalone run of a layer's step machine.
type layerRun struct {
	m    sim.Metrics
	cost cost
}

// minus removes a prefix phase, measured by its own run, from a run that
// had to execute it first.
func (a layerRun) minus(b layerRun) layerRun {
	a.m.Rounds -= b.m.Rounds
	a.m.GlobalMsgs -= b.m.GlobalMsgs
	a.m.LocalBits -= b.m.LocalBits
	a.cost.wall -= b.cost.wall
	a.cost.allocMB -= b.cost.allocMB
	return a
}

// layer runs one machine per node through sim.RunStep; verify judges the
// outputs the machines left behind.
func (p *prober) layer(name string, factory sim.StepFactory, verify func() error) layerRun {
	var run layerRun
	var err error
	run.cost = p.span(name, func() { run.m, err = sim.RunStep(p.g, p.cfg, factory) })
	if err == nil && verify != nil {
		err = verify()
	}
	p.check(name, err)
	return run
}

func (p *prober) report(name string, r layerRun) {
	p.set(name+".rounds", "rounds", float64(r.m.Rounds))
	p.set(name+".wall_ms", "ms", ms(r.cost.wall))
	p.set(name+".global_msgs", "msgs", float64(r.m.GlobalMsgs))
	p.set(name+".local_gbits", "Gbit", float64(r.m.LocalBits)/1e9)
	p.set(name+".alloc_mb", "MB", r.cost.allocMB)
}

// then runs m and afterwards f, which reads m's result.
func then(m sim.StepProgram, f func(env *sim.Env)) sim.StepProgram {
	return sim.Sequence(func(*sim.Env) sim.StepProgram { return m }, sim.Finish(f))
}

// algorithmLayers probes every algorithm layer the way the workload's
// facade call composes them: the skeleton with the workload's exponent x,
// then an APSP-shaped routing instance (every node sends one token to every
// skeleton node) over it. withCliqueSim adds the CLIQUE simulation the
// k-SSP workload spends its time in.
func (p *prober) algorithmLayers(x float64, withCliqueSim bool) {
	n := p.g.N()
	sp := skeleton.Params{X: x}
	h := sp.H(n)

	skel := make([]skeleton.Result, n)
	p.report("skeleton.compute", p.layer("skeleton.compute", func(env *sim.Env) sim.StepProgram {
		m := skeleton.NewComputeMachine(env, sp, false)
		return then(m, func(env *sim.Env) { skel[env.ID()] = m.Res })
	}, func() error { return skeleton.CheckCoverage(skel) }))
	var members []int
	for v := range skel {
		if skel[v].InSkeleton {
			members = append(members, v)
		}
	}

	heard := make([]int, n)
	p.report("skeleton.explore", p.layer("skeleton.explore", func(env *sim.Env) sim.StepProgram {
		m := skeleton.NewExploreMachine(env, true, h)
		return then(m, func(env *sim.Env) {
			for _, hops := range m.Hops {
				if hops >= 0 {
					heard[env.ID()]++
				}
			}
		})
	}, func() error {
		for v, k := range heard {
			if k < 1 {
				return fmt.Errorf("node %d heard no source, not even itself", v)
			}
		}
		return nil
	}))

	vectors := make([]int, n)
	p.report("skeleton.flood", p.layer("skeleton.flood", func(env *sim.Env) sim.StepProgram {
		var mine []int64
		if skel[env.ID()].InSkeleton {
			mine = make([]int64, n)
		}
		m := skeleton.NewFloodVectorsMachine(env, mine, h)
		return then(m, func(env *sim.Env) { vectors[env.ID()] = m.Known.Len() })
	}, func() error {
		// Lemma C.1: every node has a skeleton node within h hops.
		for v, k := range vectors {
			if k < 1 {
				return fmt.Errorf("node %d received no skeleton vector within %d hops", v, h)
			}
		}
		return nil
	}))

	sums := make([]int64, n)
	p.report("ncc.aggregate", p.layer("ncc.aggregate", func(env *sim.Env) sim.StepProgram {
		m := ncc.NewAggregateMachine(env, 1, ncc.AggSum)
		return then(m, func(env *sim.Env) { sums[env.ID()] = m.Out })
	}, func() error {
		for v, s := range sums {
			if s != int64(n) {
				return fmt.Errorf("node %d aggregated %d, want %d", v, s, n)
			}
		}
		return nil
	}))

	known := make([]int, n)
	p.report("ncc.disseminate", p.layer("ncc.disseminate", func(env *sim.Env) sim.StepProgram {
		m := ncc.NewDisseminateMachine(env, []ncc.Token{{A: int64(env.ID())}}, n, 1, ncc.DisseminateParams{})
		return then(m, func(env *sim.Env) { known[env.ID()] = len(m.Out) })
	}, func() error {
		for v, k := range known {
			if k != n {
				return fmt.Errorf("node %d knows %d of %d tokens", v, k, n)
			}
		}
		return nil
	}))

	mu := int(math.Sqrt(float64(n)))
	rulers := make([]bool, n)
	p.report("ruling", p.layer("ruling", func(env *sim.Env) sim.StepProgram {
		m := ruling.NewMachine(env, mu)
		return then(m, func(env *sim.Env) { rulers[env.ID()] = m.InSet })
	}, func() error { return ruling.Check(p.g, rulers, 2*mu+1, 2*mu*sim.Log2Ceil(n)) }))

	// Algorithm 1 for the skeleton nodes, without and with the cluster
	// structure cached — the two states a cold and a warm-started run see.
	clusters := helpers.NewClusterCache()
	families := make([]helpers.Result, n)
	helperSets := func(env *sim.Env) sim.StepProgram {
		m := helpers.NewMachine(env, skel[env.ID()].InSkeleton, mu, helpers.Params{Clusters: clusters})
		return then(m, func(env *sim.Env) { families[env.ID()] = m.Res })
	}
	clusterCheck := func() error { return helpers.ClusterCheck(p.g, families, mu) }
	p.report("helpers.cold", p.layer("helpers.cold", helperSets, clusterCheck))
	p.report("helpers.warm", p.layer("helpers.warm", helperSets, clusterCheck))

	// Token routing, APSP-shaped. The session and cluster caches start
	// empty (what the facade passes on a cold run), so the second session
	// construction finds them primed.
	rp := routing.Params{Cache: routing.NewSessionCache(), Helpers: helpers.Params{Clusters: helpers.NewClusterCache()}}
	session := func(env *sim.Env) *routing.SessionMachine {
		return routing.NewSessionMachine(env, true, skel[env.ID()].InSkeleton, len(members), n, 1.0, sp.SampleProb(n), rp)
	}
	sessionOnly := func(env *sim.Env) sim.StepProgram { return session(env) }
	p.report("routing.session", p.layer("routing.session", sessionOnly, nil))
	warm := p.layer("routing.session_warm", sessionOnly, nil)
	p.report("routing.session_warm", warm)

	// A Session is bound to the run that built it, so Route runs behind a
	// (warm) session construction, whose cost is then taken off.
	received := make([]int, n)
	both := p.layer("routing.route", func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		send := make([]routing.Token, len(members))
		for i, s := range members {
			send[i] = routing.Token{Label: routing.Label{S: id, R: s}, Value: int64(id)}
		}
		var expect []routing.Label
		if skel[id].InSkeleton {
			expect = make([]routing.Label, n)
			for v := range expect {
				expect[v] = routing.Label{S: v, R: id}
			}
		}
		sm := session(env)
		var rm *routing.RouteMachine
		return sim.Sequence(
			func(*sim.Env) sim.StepProgram { return sm },
			func(*sim.Env) sim.StepProgram {
				rm = routing.NewRouteMachine(sm.Out, send, expect)
				return rm
			},
			sim.Finish(func(*sim.Env) {
				for _, t := range rm.Out {
					if t.Value == int64(t.S) {
						received[id]++
					}
				}
			}),
		)
	}, func() error {
		for _, s := range members {
			if received[s] != n {
				return fmt.Errorf("skeleton node %d received %d of %d tokens", s, received[s], n)
			}
		}
		return nil
	})
	p.report("routing.route", both.minus(warm))

	if !withCliqueSim {
		return
	}
	zeroSelf := make([]bool, n)
	factory := cliquesim.SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, false) })
	p.report("cliquesim", p.layer("cliquesim", func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		return cliquesim.NewSimulateMachine(env, skel[id], sp.SampleProb(n), factory, routing.Params{},
			func(r cliquesim.Result) {
				if dn, ok := r.Node.(clique.DistanceNode); ok && r.Index >= 0 {
					zeroSelf[id] = dn.Distances()[r.Index] == 0
				}
			})
	}, func() error {
		for _, s := range members {
			if !zeroSelf[s] {
				return fmt.Errorf("skeleton node %d did not finish the simulated MM with d(s,s)=0", s)
			}
		}
		return nil
	}))
}

// facade times one facade call that has no workload of its own.
func (p *prober) facade(name string, call func() (hybrid.Metrics, error)) {
	var m hybrid.Metrics
	var err error
	c := p.span(name, func() { m, err = call() })
	p.check(name, err)
	p.set(name+".rounds", "rounds", float64(m.Rounds))
	p.set(name+".wall_ms", "ms", ms(c.wall))
}

// otherTheorems runs, once each on the k-SSP workload's graph, the facade
// entry points of the theorems no workload covers, and checks their
// guarantees: Corollary 4.6 (3+ε), exact SSSP, Corollary 5.2 on the
// unweighted graph.
func (p *prober) otherTheorems(in *simInstance, unweighted *hybrid.Graph) {
	const eps = 0.5
	p.facade("kssp.cor46", func() (hybrid.Metrics, error) {
		res, err := in.network(nil).KSSP(in.sources, hybrid.Cor46(eps))
		if err != nil {
			return hybrid.Metrics{}, err
		}
		for v := range in.want {
			for i, s := range in.sources {
				if want, got := in.want[v][i], res.Dist[v][s]; got < want || float64(got) > (3+eps)*float64(want) {
					return res.Metrics, fmt.Errorf("d~(%d,%d) = %d outside [d, (3+ε)d], d = %d", v, s, got, want)
				}
			}
		}
		return res.Metrics, nil
	})
	p.facade("sssp", func() (hybrid.Metrics, error) {
		res, err := in.network(nil).SSSP(0)
		if err != nil {
			return hybrid.Metrics{}, err
		}
		for v, want := range hybrid.Dijkstra(in.g, 0) {
			if res.Dist[v] != want {
				return res.Metrics, fmt.Errorf("d(%d,0) = %d, ground truth %d", v, res.Dist[v], want)
			}
		}
		return res.Metrics, nil
	})
	p.facade("diameter.cor52", func() (hybrid.Metrics, error) {
		opts := append([]hybrid.Option{hybrid.WithSeed(algSeed)}, in.spec.engine.options()...)
		res, err := hybrid.New(unweighted, opts...).Diameter(hybrid.DiamCor52(eps))
		if err != nil {
			return hybrid.Metrics{}, err
		}
		// Cor 5.2 with η = max(1, 1/ε): D <= D~ <= (3/2 + ε + 2/η)·D.
		d := hybrid.HopDiameter(unweighted)
		if hi := (1.5 + eps + 2/math.Max(1, 1/eps)) * float64(d); res.Estimate < d || float64(res.Estimate) > hi {
			return res.Metrics, fmt.Errorf("estimate %d outside [D, %.1f], D = %d", res.Estimate, hi, d)
		}
		return res.Metrics, nil
	})
}

// enginePerMessage probes the round engine itself on the workload's graph
// and engine: the fixed cost of a round in which every node idles, and the
// cost per delivered message of cap-full global rounds and of one-word
// local broadcasts (barrier included).
func (p *prober) enginePerMessage() {
	rounds := p.c.sz.microRounds
	idle := func(env *sim.Env) sim.StepProgram { return &sim.Loop{Rounds: rounds} }
	var err error
	c := p.span("sim.barrier", func() { _, err = sim.RunStep(p.g, p.cfg, idle) })
	p.check("sim.barrier", err)
	p.set("sim.barrier_us_per_round", "us", float64(c.wall)/float64(time.Microsecond)/float64(rounds))
	// Rounds in which every node sends: a cap-full of global messages, or
	// one word to each neighbour.
	perMsg := func(name string, send func(env *sim.Env, i int), count func(m sim.Metrics) int64) {
		var m sim.Metrics
		var err error
		c := p.span(name, func() {
			m, err = sim.RunStep(p.g, p.cfg, func(env *sim.Env) sim.StepProgram {
				return &sim.Loop{Rounds: rounds / 10, Send: send}
			})
		})
		if err == nil && count(m) == 0 {
			err = fmt.Errorf("no message was delivered")
		}
		p.check(name, err)
		if err == nil {
			p.set(name, "ns", float64(c.wall)/float64(count(m)))
		}
	}
	n := p.g.N()
	perMsg("sim.global_ns_per_msg", func(env *sim.Env, i int) {
		for k := 0; k < env.GlobalCap(); k++ {
			env.SendGlobal((env.ID()+1+k+i)%n, 0, 0, 0, 0, 0)
		}
	}, func(m sim.Metrics) int64 { return m.GlobalMsgs })
	perMsg("sim.local_ns_per_msg", func(env *sim.Env, i int) {
		env.BroadcastLocal(i)
	}, func(m sim.Metrics) int64 { return m.LocalMsgs })
}
