package kssp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/skeleton"
)

// pinnedKSSP holds the Algorithm 5 machine, on every engine, to the trace
// recorded from the blocking Compute it replaced (re-recorded when the node
// streams became SplitMix64), and every estimate to at
// least the true distance (and at most factor times it).
func pinnedKSSP(t *testing.T, g *graph.Graph, sources []int, spec AlgSpec, params Params, seed int64, factor int64, pin simtest.Pin) {
	t.Helper()
	n := g.N()
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	words := func(res []SourceDist) []int64 {
		w := []int64{int64(len(res))}
		for _, sd := range res {
			w = append(w, int64(sd.Source), sd.Dist)
		}
		return w
	}
	got := make([][]SourceDist, n)
	simtest.Machines(t, "kssp", g, seed, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		id := env.ID()
		return NewComputeMachine(env, isSource[id], len(sources), spec, params, func(res []SourceDist) {
			got[id] = res
			emit(words(res)...)
		})
	})
	truth := graph.KDistances(g, sources)
	column := map[int]int{}
	for si, s := range sources {
		column[s] = si
	}
	for v := range got {
		for _, sd := range got[v] {
			if d := truth[v][column[sd.Source]]; sd.Dist < d || sd.Dist > factor*d {
				t.Errorf("node %d source %d: estimate %d, distance %d, factor %d", v, sd.Source, sd.Dist, d, factor)
			}
		}
	}
}

// TestComputeMachineMatchesOracle covers the declared-cost oracle path
// (Corollary 4.7, APSP sources; unweighted: factor 2+ε).
func TestComputeMachineMatchesOracle(t *testing.T) {
	pinnedKSSP(t, graph.Grid(6, 6), []int{0, 17, 35}, Corollary47(0.5, 0), Params{}, 31, 3,
		simtest.Pin{Metrics: sim.Metrics{Rounds: 1690, GlobalMsgs: 1210, GlobalBits: 62920, LocalMsgs: 6783, LocalBits: 319008, MaxGlobalSend: 6, MaxGlobalRecv: 6}, Sum: 0x7fe50462727c19ef})
}

// TestComputeMachineMatchesRealMM covers the real-message semiring MM path
// (every simulated CLIQUE round routes real tokens through the session).
func TestComputeMachineMatchesRealMM(t *testing.T) {
	pinnedKSSP(t, graph.Grid(5, 5), []int{0, 24}, RealMM(2), Params{}, 37, 3,
		simtest.Pin{Metrics: sim.Metrics{Rounds: 1756, GlobalMsgs: 1660, GlobalBits: 76360, LocalMsgs: 8533, LocalBits: 527380, MaxGlobalSend: 5, MaxGlobalRecv: 5}, Sum: 0x1afe3a2df4a1ca7a})
}

// TestComputeMachineMatchesSingleSource covers the γ=0 summoning path
// (Corollary 4.9, the Theorem 1.3 SSSP engine: exact).
func TestComputeMachineMatchesSingleSource(t *testing.T) {
	pinnedKSSP(t, graph.Path(30), []int{7}, Corollary49(), Params{}, 41, 1,
		simtest.Pin{Metrics: sim.Metrics{Rounds: 1424, GlobalMsgs: 915, GlobalBits: 42090, LocalMsgs: 3059, LocalBits: 57700, MaxGlobalSend: 5, MaxGlobalRecv: 5}, Sum: 0xb597dc4e80310852})
}

// shortEta is a weighted grid whose hop diameter (12) exceeds the ηh
// exploration's rounds (capped at 3), with four sources: every node hears a
// different subset of them.
func shortEta() (*graph.Graph, []int, Params) {
	g := graph.WithRandomWeights(graph.Grid(7, 7), 9, rand.New(rand.NewSource(43)))
	return g, []int{0, 20, 33, 48}, Params{MaxEtaRounds: 3}
}

// TestComputeMachineMatchesShortEta covers Algorithm 5 where the ηh
// exploration reaches only part of the graph (weighted: factor 2α+1 = 9).
func TestComputeMachineMatchesShortEta(t *testing.T) {
	g, sources, params := shortEta()
	pinnedKSSP(t, g, sources, Corollary47(0.5, 0), params, 47, 9,
		simtest.Pin{Metrics: sim.Metrics{Rounds: 1885, GlobalMsgs: 2152, GlobalBits: 111904, LocalMsgs: 11246, LocalBits: 962478, MaxGlobalSend: 6, MaxGlobalRecv: 8}, Sum: 0xce540c71e319ba61})
}

// TestEtaExploreMachineMatches pins the ηh exploration as NewComputeMachine
// runs it on shortEta (the sparse form, the sources as origins, etaRounds
// from Plan): each node's estimate per node ID, graph.Inf where unheard —
// the dense vector the exploration was pinned as — checked against
// sequential hop-limited Bellman-Ford.
func TestEtaExploreMachineMatches(t *testing.T) {
	g, sources, params := shortEta()
	n := g.N()
	_, _, etaRounds := Corollary47(0.5, 0).Plan(params, n)
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 3, LocalMsgs: 107, LocalBits: 1980}, Sum: 0xd8a3c50763120944}
	got := make([][]int64, n)
	simtest.Machines(t, "eta explore", g, 53, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		m := skeleton.NewSparseExploreMachine(env, isSource[env.ID()], etaRounds)
		return sim.Then(m, func(env *sim.Env) {
			near := make([]int64, n)
			for v := range near {
				near[v] = graph.Inf
			}
			for _, e := range m.Heard {
				near[e.ID] = e.Dist
			}
			got[env.ID()] = near
			emit(near...)
		})
	})
	for _, s := range sources {
		want := graph.LimitedDistance(g, s, etaRounds)
		for v := range got {
			if got[v][s] != want[v] {
				t.Errorf("node %d: source %d at %d, want %d", v, s, got[v][s], want[v])
			}
		}
	}
}
