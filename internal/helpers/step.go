package helpers

import (
	"repro/internal/flatmap"
	"repro/internal/ncc"
	"repro/internal/ruling"
	"repro/internal/sim"
)

// Machine is the step-machine form of Compute (Algorithm 1), built from the
// ruling-set machine and two flood loops. After it finishes, Res holds the
// node's helper-family view. The port is faithful to Compute: identical
// messages, randomness order, and round count on every engine.
type Machine struct {
	// Res is this node's Algorithm 1 output; valid once Step returned true.
	Res Result

	prog sim.StepProgram
}

// NewMachine builds the collective Algorithm 1 machine; all nodes must
// start it in the same round with the same µ and params, exactly like
// Compute. With params.Clusters set it is the step form of the
// cluster-cached construction: the collective agreement aggregation, then
// either the structural shortcut (cached ruler assignment and member
// directory, the 2β-round W flood, fresh helper sampling) or the full
// build re-populating the cache — the same rounds, messages, and branch
// as the goroutine form.
func NewMachine(env *sim.Env, inW bool, mu int, params Params) *Machine {
	p := params.withDefaults()
	if mu < 1 {
		mu = 1
	}
	m := &Machine{}
	if p.Clusters == nil {
		m.prog = newColdProg(env, m, inW, mu, p)
		return m
	}
	entry := p.Clusters.lookup(mu)
	inner := &Machine{}
	var agg *ncc.AggregateMachine
	var wf *wFloodMachine
	var ruler, dist int
	var members []int
	m.prog = sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			agg = ncc.NewAggregateMachine(env, entry.mismatch(env.ID()), ncc.AggMax)
			return agg
		},
		func(env *sim.Env) sim.StepProgram {
			hit := agg.Out == 0
			p.Clusters.traceEvent(env, mu, hit)
			if hit {
				ruler, dist, members = entry.bind(env.ID())
				wf = newWFloodMachine(env, inW, ruler, 2*clusterBeta(env.N(), mu))
				return wf
			}
			inner.prog = newColdProg(env, inner, inW, mu, p)
			return inner
		},
		sim.Finish(func(env *sim.Env) {
			if agg.Out == 0 {
				m.Res = finishFromCluster(env, p, mu, ruler, dist, members, wf.WMembers(), inW)
				return
			}
			m.Res = inner.Res
			p.Clusters.shared(env, mu).store(env.ID(), inner.Res)
		}),
	)
	return m
}

// wFloodMachine is the step form of floodW: the 2β-round W-membership
// flood of the structural-hit path. Its dedup set and delta buffers follow
// the same allocation discipline as floodW.
type wFloodMachine struct {
	seen flatmap.Set
	bufs [2]wRecs
	loop sim.Loop
}

func newWFloodMachine(env *sim.Env, inW bool, ruler int, rounds int) *wFloodMachine {
	w := &wFloodMachine{}
	if inW {
		w.seen.Add(uint64(env.ID()))
		w.bufs[0] = append(w.bufs[0], wRec{ID: env.ID(), Ruler: ruler})
	}
	w.loop = sim.Loop{
		Rounds:   rounds,
		NextSend: sim.Reactive,
		Send: func(env *sim.Env, i int) {
			if len(w.bufs[i&1]) > 0 {
				env.BroadcastLocal(&w.bufs[i&1])
			}
		},
		Recv: func(env *sim.Env, in sim.Inbox, i int) {
			w.bufs[(i+1)&1] = collectW(env, in, ruler, &w.seen, w.bufs[(i+1)&1][:0])
		},
	}
	return w
}

// Step implements sim.StepProgram.
func (w *wFloodMachine) Step(env *sim.Env) bool { return w.loop.Step(env) }

// WMembers returns the sorted W members of this node's cluster; valid once
// Step returned true.
func (w *wFloodMachine) WMembers() []int { return sortedSetKeys(&w.seen) }

// newColdProg is the uncached Algorithm 1 machine, writing the finished
// result to m.Res (the step twin of computeCold).
func newColdProg(env *sim.Env, m *Machine, inW bool, mu int, p Params) sim.StepProgram {
	n := env.N()
	beta := 2 * mu * sim.Log2Ceil(n)

	var rule *ruling.Machine
	// Phase 2 state: the lexicographically smallest (dist, ruler) heard.
	// Waves rotate through waveBuf exactly as in computeCold.
	bestDist, bestRuler := n+1, -1
	improved := false
	var waveBuf [2]clusterWave
	// Phase 3 state: the known members of the own cluster (ID -> InW) plus
	// the rotated delta buffers, mirroring computeCold.
	var known flatmap.Map[bool]
	var bufs [2]memberRecs

	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			rule = ruling.NewMachine(env, mu)
			return rule
		},
		func(env *sim.Env) sim.StepProgram {
			if rule.InSet {
				bestDist, bestRuler = 0, env.ID()
				improved = true
			}
			return &sim.Loop{
				Rounds:   beta,
				NextSend: sim.Reactive, // a wave goes out only after an improvement arrived
				Send: func(env *sim.Env, i int) {
					if improved {
						waveBuf[i&1] = clusterWave{Ruler: bestRuler, Dist: bestDist}
						env.BroadcastLocal(&waveBuf[i&1])
						improved = false
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					for _, lm := range in.Local {
						w, ok := lm.Payload.(*clusterWave)
						if !ok {
							continue
						}
						d := w.Dist + 1
						if d < bestDist || (d == bestDist && w.Ruler < bestRuler) {
							bestDist, bestRuler = d, w.Ruler
							improved = true
						}
					}
				},
			}
		},
		func(env *sim.Env) sim.StepProgram {
			known.Put(uint64(env.ID()), inW)
			bufs[0] = append(bufs[0], memberRec{ID: env.ID(), Ruler: bestRuler, InW: inW})
			return &sim.Loop{
				Rounds:   2 * beta,
				NextSend: sim.Reactive,
				Send: func(env *sim.Env, i int) {
					if len(bufs[i&1]) > 0 {
						env.BroadcastLocal(&bufs[i&1])
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					next := bufs[(i+1)&1][:0]
					for _, lm := range in.Local {
						recs, ok := lm.Payload.(*memberRecs)
						if !ok {
							continue
						}
						for _, r := range *recs {
							if r.Ruler != bestRuler {
								continue // other cluster, not ours to track or forward
							}
							if !known.Has(uint64(r.ID)) {
								known.Put(uint64(r.ID), r.InW)
								next = append(next, r)
							}
						}
					}
					bufs[(i+1)&1] = next
				},
			}
		},
		sim.Finish(func(env *sim.Env) {
			res := memberResult(bestRuler, bestDist, inW, mu, &known)
			res.Helps = sampleHelps(env, p, mu, len(res.Members), res.WMembers)
			m.Res = res
		}),
	)
}

// Step implements sim.StepProgram.
func (m *Machine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// PayloadWords implements sim.WordSized: a cluster wave carries a ruler ID
// and a hop distance.
func (clusterWave) PayloadWords() int64 { return 2 }

// memberRecs is the local-mode payload of the intra-cluster member flood: a
// batch of member records.
type memberRecs []memberRec

// PayloadWords implements sim.WordSized: each record is an ID and a ruler
// ID (the InW bit rides along for free).
func (r memberRecs) PayloadWords() int64 { return 2 * int64(len(r)) }
