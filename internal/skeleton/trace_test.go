package skeleton

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// The tests of this file hold each machine, on every engine, to the trace
// recorded from the blocking collective it replaced: Metrics and every node's
// output.

// words flattens a Result for the pinned hash, Near in ascending ID order.
func (r Result) words() []int64 {
	ids := make([]int, 0, len(r.Near))
	for u := range r.Near {
		ids = append(ids, u)
	}
	sort.Ints(ids)
	w := []int64{simtest.Bool(r.InSkeleton), int64(r.H), int64(len(ids))}
	for _, u := range ids {
		w = append(w, int64(u), r.Near[u], int64(r.NearHops[u]))
	}
	return w
}

func TestExploreMachineMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.WithRandomWeights(graph.Grid(6, 6), 5, rng)
	isSource := func(id int) bool { return id%4 == 0 }
	const rounds = 7
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 7, LocalMsgs: 646, LocalBits: 18144}, Sum: 0xf7393c5ab64249ed}
	exploreWords := func(near []int64, hops []int32) []int64 {
		w := append([]int64(nil), near...)
		for _, h := range hops {
			w = append(w, int64(h))
		}
		return w
	}
	simtest.Machines(t, "explore", g, 13, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := NewExploreMachine(env, isSource(env.ID()), rounds)
		return sim.Then(m, func(*sim.Env) { emit(exploreWords(m.Near, m.Hops)...) })
	})
}

func TestFloodVectorsMachineMatches(t *testing.T) {
	g := graph.Grid(5, 5)
	mineOf := func(id, n int) []int64 {
		if id%3 != 0 {
			return nil
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(id*100 + i)
		}
		return v
	}
	const radius = 4
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 4, LocalMsgs: 224, LocalBits: 57240}, Sum: 0x6b15523765496004}
	labelWords := func(l *Labels) []int64 {
		var w []int64
		for _, k := range l.AppendSortedKeys(nil) {
			v, _ := l.Get(k)
			w = append(append(w, int64(k)), v...)
		}
		return w
	}
	simtest.Machines(t, "flood", g, 14, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := NewFloodVectorsMachine(env, mineOf(env.ID(), env.N()), radius)
		return sim.Then(m, func(*sim.Env) { emit(labelWords(&m.Known)...) })
	})
}

// TestComputeMachineMatches covers Algorithm 6 including the membership
// sampling — uncached, populating a result cache, and bound from it — and
// Algorithm 7 on the skeleton it builds.
func TestComputeMachineMatches(t *testing.T) {
	g := graph.Path(40)
	pins := map[string]simtest.Pin{
		"uncached":   {Metrics: sim.Metrics{Rounds: 387, GlobalMsgs: 246, GlobalBits: 12792, LocalMsgs: 912, LocalBits: 22464, MaxGlobalSend: 6, MaxGlobalRecv: 5}, Sum: 0xa2ee772423a6e725},
		"cache miss": {Metrics: sim.Metrics{Rounds: 399, GlobalMsgs: 324, GlobalBits: 16848, LocalMsgs: 912, LocalBits: 22464, MaxGlobalSend: 6, MaxGlobalRecv: 5}, Sum: 0xa2ee772423a6e725},
		"cache hit":  {Metrics: sim.Metrics{Rounds: 359, GlobalMsgs: 324, GlobalBits: 16848, LocalMsgs: 174, LocalBits: 8424, MaxGlobalSend: 6, MaxGlobalRecv: 5}, Sum: 0xa2ee772423a6e725},
	}
	isSource := func(id int) bool { return id%7 == 3 }
	repWords := func(reps []RepInfo) []int64 {
		w := []int64{int64(len(reps))}
		for _, r := range reps {
			w = append(w, int64(r.Source), int64(r.Rep), r.Dist)
		}
		return w
	}

	results := make([]Result, g.N())
	machine := func(p Params) simtest.Factory {
		return func(env *sim.Env, emit func(...int64)) sim.StepProgram {
			var skelM *ComputeMachine
			var repsM *RepresentativesMachine
			return sim.Sequence(
				func(env *sim.Env) sim.StepProgram {
					skelM = NewComputeMachine(env, p, env.ID() == 0)
					return skelM
				},
				func(env *sim.Env) sim.StepProgram {
					results[env.ID()] = skelM.Res
					emit(skelM.Res.words()...)
					repsM = NewRepresentativesMachine(env, skelM.Res, isSource(env.ID()), 6)
					return repsM
				},
				sim.Finish(func(*sim.Env) { emit(repWords(repsM.Out)...) }),
			)
		}
	}
	for _, eng := range simtest.Engines {
		simtest.Run(t, "uncached", g, eng, 15, pins["uncached"], machine(Params{X: 0.5}))
		cached := Params{X: 0.5, Cache: NewResultCache()}
		simtest.Run(t, "cache miss", g, eng, 15, pins["cache miss"], machine(cached))
		simtest.Run(t, "cache hit", g, eng, 15, pins["cache hit"], machine(cached))
		if err := CheckCoverage(results); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
		if err := CheckDistancePreservation(g, results); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
	}
}
