package skeleton

import (
	"math/rand"
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
	w := []int64{simtest.Bool(r.InSkeleton), int64(r.H), int64(len(r.Near))}
	for _, u := range r.Near {
		w = append(w, int64(u.ID), u.Dist, int64(u.Hops))
	}
	return w
}

// densify is a finished sparse exploration's Heard as the dense form's
// Near/Hops vectors.
func densify(heard []Heard, n int) ([]int64, []int32) {
	near, hops := make([]int64, n), make([]int32, n)
	for i := range near {
		near[i], hops[i] = graph.Inf, -1
	}
	for _, e := range heard {
		near[e.ID], hops[e.ID] = e.Dist, e.Hops
	}
	return near, hops
}

// TestExploreMachineMatches holds both forms of the exploration to the one
// pin: the sparse form, densified, emits the dense form's words.
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
	simtest.Machines(t, "sparse explore", g, 13, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := NewSparseExploreMachine(env, isSource(env.ID()), rounds)
		return sim.Then(m, func(env *sim.Env) { emit(exploreWords(densify(m.Heard, env.N()))...) })
	})
}

// TestLocalMachinesMatch holds the LOCAL-only SSSP baseline (a sparse
// exploration from one source, read as its one estimate) and its k-source
// form (densified) to the trace recorded from the blocking Local and LocalAll
// of the deleted internal/sssp, on every engine; with rounds = n-1 >= SPD
// both are exact.
func TestLocalMachinesMatch(t *testing.T) {
	g := graph.Path(25)
	const rounds = 24
	isSource := func(id int) bool { return id == 3 }
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 48, LocalMsgs: 96, LocalBits: 1440}, Sum: 0x7b64e5f79a2437f}

	gotOne := make([]int64, g.N())
	simtest.Machines(t, "local", g, 19, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		id := env.ID()
		var one, all *ExploreMachine
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				one = NewSparseExploreMachine(env, isSource(id), rounds)
				return one
			},
			func(env *sim.Env) sim.StepProgram {
				gotOne[id] = singleSource(one)
				emit(gotOne[id])
				all = NewSparseExploreMachine(env, isSource(id), rounds)
				return all
			},
			sim.Finish(func(env *sim.Env) {
				near, _ := densify(all.Heard, env.N())
				emit(near...)
			}),
		)
	})
	want := graph.Dijkstra(g, 3)
	for v, d := range gotOne {
		if d != want[v] {
			t.Errorf("node %d: distance %d, want %d", v, d, want[v])
		}
	}
}

// singleSource is a finished one-source sparse exploration's estimate,
// graph.Inf if the wave never arrived.
func singleSource(m *ExploreMachine) int64 {
	if len(m.Heard) == 0 {
		return graph.Inf
	}
	return m.Heard[0].Dist
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

// TestComputeMachineMatchesShortH covers Algorithm 6 with h below the hop
// diameter of a weighted grid, so nodes hear different skeleton sets (some
// none at all): each node's Result, on every engine, with the d <= dd <= d_h
// sandwich and the BFS hop layer checked against sequential ground truth.
func TestComputeMachineMatchesShortH(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.WithRandomWeights(graph.Grid(8, 8), 9, rng)
	p := Params{X: 0.6, HFactor: 0.15} // h = ceil(0.15·64^0.4·ln 64) = 4
	h := p.H(g.N())
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 4, LocalMsgs: 604, LocalBits: 20340}, Sum: 0xd222b1c438b3cda0}
	results := make([]Result, g.N())
	simtest.Machines(t, "short h", g, 17, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := NewComputeMachine(env, p, false)
		return sim.Then(m, func(env *sim.Env) {
			results[env.ID()] = m.Res
			emit(m.Res.words()...)
		})
	})
	sizes := map[int]bool{}
	for v, r := range results {
		sizes[len(r.Near)] = true
		trueD, limD, bfs := graph.Dijkstra(g, v), graph.LimitedDistance(g, v, h), graph.BFS(g, v)
		within := 0
		for u := range results {
			if !results[u].InSkeleton || bfs[u] > int64(h) {
				continue
			}
			within++
			e, ok := Find(r.Near, u)
			if !ok {
				t.Fatalf("node %d misses skeleton node %d at %d hops <= h = %d", v, u, bfs[u], h)
			}
			if e.Dist < trueD[u] || e.Dist > limD[u] || int64(e.Hops) != bfs[u] {
				t.Fatalf("node %d has skeleton node %d at (%d, %d hops), want d %d <= dd <= d_h %d at %d hops",
					v, u, e.Dist, e.Hops, trueD[u], limD[u], bfs[u])
			}
		}
		if len(r.Near) != within {
			t.Fatalf("node %d heard %d skeleton nodes, %d are within h = %d hops", v, len(r.Near), within, h)
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("every node heard about as many skeleton nodes (%d result sizes); the graph does not exercise h < hop diameter", len(sizes))
	}
}

// TestComputeMachineMatches covers Algorithm 6 including the membership
// sampling, and Algorithm 7 on the skeleton it builds.
func TestComputeMachineMatches(t *testing.T) {
	g := graph.Path(40)
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 387, GlobalMsgs: 246, GlobalBits: 12792, LocalMsgs: 912, LocalBits: 22464, MaxGlobalSend: 6, MaxGlobalRecv: 5}, Sum: 0xa2ee772423a6e725}
	isSource := func(id int) bool { return id%7 == 3 }
	repWords := func(reps []RepInfo) []int64 {
		w := []int64{int64(len(reps))}
		for _, r := range reps {
			w = append(w, int64(r.Source), int64(r.Rep), r.Dist)
		}
		return w
	}

	results := make([]Result, g.N())
	machine := func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		var skelM *ComputeMachine
		var repsM *RepresentativesMachine
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				skelM = NewComputeMachine(env, Params{X: 0.5}, env.ID() == 0)
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
	for _, eng := range simtest.Engines {
		simtest.Run(t, "uncached", g, eng, 15, pin, machine)
		if err := CheckCoverage(results); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
		if err := CheckDistancePreservation(g, results); err != nil {
			t.Errorf("%s: %v", eng, err)
		}
	}
}
