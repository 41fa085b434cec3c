package flood

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// heard is one delta as its receiver saw it on the wire; first is one
// first arrival. A node's trace is everything it observed, in order.
type heard struct {
	Round, From int
	Words       int64
	Origins     []int
}

type first struct {
	Round, Origin int
	Val0          int64
}

type trace struct {
	Heard []heard
	First []first
}

// instance is a flood problem: every node's scope, and per flood the value
// each origin injects (nil: the node injects nothing).
type instance struct {
	g      *graph.Graph
	scope  []int
	rounds int
	vals   [][][]int64 // [flood][node]
}

func vecWords(v []int64) int64 { return 2 + int64(len(v)) }

// refRec and refDelta are the reference flood's wire format: the scope
// travels with every record and the word total is recomputed per call.
type refRec struct {
	Scope, Origin int
	Val           []int64
}

type refDelta []refRec

func (d refDelta) PayloadWords() (w int64) {
	for _, r := range d {
		w += vecWords(r.Val)
	}
	return w
}

// refFlood is the map-based reference: a fresh seen-map per flood, a fresh
// delta per round, the scope compared per record, called every round.
func refFlood(env *sim.Env, scope, rounds int, mine []int64, tr *trace) sim.StepProgram {
	seen := map[int]bool{}
	var next refDelta
	hear := func(r refRec) {
		if r.Scope == scope && !seen[r.Origin] {
			seen[r.Origin] = true
			next = append(next, r)
			tr.First = append(tr.First, first{env.Round(), r.Origin, r.Val[0]})
		}
	}
	if mine != nil {
		hear(refRec{scope, env.ID(), mine})
	}
	return &sim.Loop{
		Rounds: rounds,
		Send: func(env *sim.Env, i int) {
			if len(next) > 0 {
				env.BroadcastLocal(next)
			}
		},
		Recv: func(env *sim.Env, in sim.Inbox, i int) {
			next = nil
			for _, lm := range in.Local {
				d := lm.Payload.(refDelta)
				h := heard{Round: env.Round(), From: lm.From, Words: d.PayloadWords()}
				for _, r := range d {
					h.Origins = append(h.Origins, r.Origin)
				}
				tr.Heard = append(tr.Heard, h)
				for _, r := range d {
					hear(r)
				}
			}
		},
	}
}

// run floods the instance's floods one after another and returns every
// node's trace. With ref it runs the reference; otherwise the kernel, one
// State per node started once per flood, like a routing Session's — but in
// the very round segment the flood before finished in, while neighbours in
// the other shards still read its last delta (go test -race sees a Start that
// resets it).
func (in *instance) run(t *testing.T, eng sim.Engine, ref bool) ([]trace, sim.Metrics) {
	t.Helper()
	traces := make([]trace, in.g.N())
	m, err := sim.RunStep(in.g, sim.Config{Engine: eng, Seed: 1, Shards: 3}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		tr := &traces[id]
		st := &State[[]int64]{}
		var phases []func(*sim.Env) sim.StepProgram
		for _, vals := range in.vals {
			phases = append(phases, func(env *sim.Env) sim.StepProgram {
				if ref {
					return refFlood(env, in.scope[id], in.rounds, vals[id], tr)
				}
				st.Start(env, in.scope[id], in.rounds, vecWords, func(origin int, val []int64) {
					tr.First = append(tr.First, first{env.Round(), origin, val[0]})
				})
				if vals[id] != nil {
					st.Inject(id, vals[id])
				}
				// The flood's first segment only sends: the inbox it finds
				// there is the last one of the flood before.
				began := env.Round()
				return sim.StepFunc(func(env *sim.Env) bool {
					for _, lm := range env.Incoming().Local {
						if env.Round() == began {
							break
						}
						d := lm.Payload.(*delta[[]int64])
						if d.scope != in.scope[lm.From] {
							t.Errorf("node %d sent a delta of scope %d, its own is %d", lm.From, d.scope, in.scope[lm.From])
						}
						h := heard{Round: env.Round(), From: lm.From, Words: d.PayloadWords()}
						for _, r := range d.recs {
							h.Origins = append(h.Origins, r.Origin)
						}
						tr.Heard = append(tr.Heard, h)
					}
					return st.Step(env)
				})
			})
		}
		return sim.Sequence(phases...)
	})
	if err != nil {
		t.Fatalf("%v (ref=%v): %v", eng, ref, err)
	}
	return traces, m
}

// randomInstance draws a sparse graph split into `clusters` scopes by
// nearest centre (so scopes border each other), two floods with different
// origin sets (about a third of the nodes inject nothing), and a radius.
func randomInstance(rng *rand.Rand, n, clusters, rounds int) *instance {
	in := &instance{g: graph.SparseConnected(n, 1.3, rng), scope: make([]int, n), rounds: rounds}
	centres := rng.Perm(n)[:clusters]
	dist := make([][]int64, clusters)
	for c, v := range centres {
		dist[c] = graph.BFS(in.g, v)
	}
	for v := range in.scope {
		best := 0
		for c := range centres {
			if dist[c][v] < dist[best][v] {
				best = c
			}
		}
		in.scope[v] = centres[best]
	}
	for f := 0; f < 2; f++ {
		vals := make([][]int64, n)
		for v := range vals {
			if rng.Intn(3) > 0 {
				vals[v] = make([]int64, 1+rng.Intn(4))
				vals[v][0] = rng.Int63()
			}
		}
		in.vals = append(in.vals, vals)
	}
	return in
}

// TestFloodMatchesMapReference holds the kernel to the 20-line flood it
// replaced six copies of: on random graphs with several scopes (every border
// edge is a foreign-scope neighbour), nodes that inject nothing, and a radius
// well below the diameter, every node sees the same deltas from the same
// neighbours in the same rounds with the same word totals, hears every
// origin first in the same round, and the run costs the same Metrics. Each
// node's State runs two floods with different origins, so a bitset that was
// not cleared by Start would suppress the second flood's first arrivals.
func TestFloodMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cut := 0 // trials in which the radius kept an origin from a node of its scope
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(70)
		in := randomInstance(rng, n, 1+rng.Intn(5), 2+rng.Intn(5))
		want, wantM := in.run(t, sim.EngineLegacy, true)
		arrivals, reachable := 0, 0
		for v, tr := range want {
			arrivals += len(tr.First)
			for _, vals := range in.vals {
				for o := range vals {
					if vals[o] != nil && in.scope[o] == in.scope[v] {
						reachable++
					}
				}
			}
		}
		if arrivals < reachable {
			cut++
		}
		for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
			got, gotM := in.run(t, eng, false)
			if gotM != wantM {
				t.Errorf("trial %d on %v: Metrics %+v, reference %+v", trial, eng, gotM, wantM)
			}
			for v := range want {
				if !reflect.DeepEqual(got[v].First, want[v].First) {
					t.Fatalf("trial %d on %v: first arrivals at node %d (scope %d) diverge from the reference:\n got %+v\nwant %+v",
						trial, eng, v, in.scope[v], got[v].First, want[v].First)
				}
				if !reflect.DeepEqual(got[v].Heard, want[v].Heard) {
					t.Fatalf("trial %d on %v: deltas heard by node %d (scope %d) diverge from the reference:\n got %+v\nwant %+v",
						trial, eng, v, in.scope[v], got[v].Heard, want[v].Heard)
				}
			}
		}
	}
	if cut == 0 {
		t.Error("no trial's radius was below its scopes' diameter")
	}
}

// TestAppendOrigins checks the ascending drain of the dedup bitset across
// word boundaries, and that OriginsAre accepts that list and no other.
func TestAppendOrigins(t *testing.T) {
	var got []int
	lists := map[bool][][]int{
		true:  {{0, 63, 64, 127, 128, 199}},
		false: {nil, {0, 63, 64, 127, 128}, {0, 63, 64, 127, 128, 198}, {0, 63, 64, 127, 128, 199, 200}, {-1, 0, 63, 64, 127, 128}},
	}
	_, err := sim.RunStep(graph.Path(200), sim.Config{}, func(env *sim.Env) sim.StepProgram {
		st := &State[struct{}]{}
		st.Start(env, 0, 0, func(struct{}) int64 { return 1 }, nil)
		if env.ID() == 0 {
			for _, o := range []int{128, 0, 199, 64, 63, 127} {
				st.Inject(o, struct{}{})
			}
			got = st.AppendOrigins([]int{-1})
			for want, ls := range lists {
				for _, l := range ls {
					if st.OriginsAre(l) != want {
						t.Errorf("OriginsAre(%v) = %v", l, !want)
					}
				}
			}
		}
		return st
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{-1, 0, 63, 64, 127, 128, 199}; !reflect.DeepEqual(got, want) {
		t.Errorf("AppendOrigins = %v, want %v", got, want)
	}
}

// TestFloodRoundsZeroAlloc is the kernel's memory-discipline gate: on a
// State that has run one flood, the rounds of the next flood of the same
// shape allocate nothing — whatever the payload type. The six shapes are the
// six instantiations' (routing's announce, spread and collect; helpers'
// member and W floods; skeleton's label vectors): a slice, bool or empty
// payload boxed per record, a delta grown from nil or a dedup structure
// rebuilt per flood would show up as a nonzero count under any of them. The
// first-arrival hooks write into storage the first flood warmed, like the
// directories of the real instantiations.
func TestFloodRoundsZeroAlloc(t *testing.T) {
	type tok struct{ s, r, i, v int64 }
	t.Run("announce", func(t *testing.T) {
		zeroAllocFlood(t, func(id int) []int { return make([]int, 1+id%3) },
			func(o []int) int64 { return 3 * int64(len(o)) })
	})
	t.Run("spread", func(t *testing.T) {
		zeroAllocFlood(t, func(id int) []tok { return make([]tok, 1+id%4) },
			func(ts []tok) int64 { return 2 + 4*int64(len(ts)) })
	})
	t.Run("collect", func(t *testing.T) {
		zeroAllocFlood(t, func(id int) []tok { return make([]tok, id%2) },
			func(ts []tok) int64 { return 2 + 4*int64(len(ts)) })
	})
	t.Run("members", func(t *testing.T) {
		zeroAllocFlood(t, func(id int) bool { return id%2 == 0 }, func(bool) int64 { return 2 })
	})
	t.Run("w", func(t *testing.T) {
		zeroAllocFlood(t, func(int) struct{} { return struct{}{} }, func(struct{}) int64 { return 2 })
	})
	t.Run("vectors", func(t *testing.T) {
		zeroAllocFlood(t, func(id int) []int64 { return make([]int64, 8) },
			func(v []int64) int64 { return 2 + int64(len(v)) })
	})
}

func zeroAllocFlood[P any](t *testing.T, val func(id int) P, words func(P) int64) {
	g := graph.Grid(8, 8)
	// Two scopes, the grid's upper and lower half (diameter 10): waves travel
	// in every measured round.
	const rounds, measured = 12, 8
	mine := make([]P, g.N())
	for id := range mine {
		mine[id] = val(id)
	}
	st, err := sim.NewStepper(g, sim.Config{Engine: sim.EngineStep, Shards: 1}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		s := &State[P]{}
		var got []Rec[P]
		flood := func(env *sim.Env) sim.StepProgram {
			got = got[:0]
			s.Start(env, id/32, rounds, words, func(o int, v P) { got = append(got, Rec[P]{o, v}) })
			s.Inject(id, mine[id])
			return s
		}
		return sim.Sequence(flood, flood)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The round a flood starts in arms its loop (and allocates its two
	// method values); the window opens on the round after.
	if st.Advance(rounds + 1) {
		t.Fatal("run finished before the second flood")
	}
	// AllocsPerRun calls the body once more than it measures.
	if allocs := testing.AllocsPerRun(measured-1, func() { st.Advance(1) }); allocs != 0 {
		t.Errorf("got %v allocs/round in rounds 2..%d of a flood on warm state, want 0", allocs, measured+1)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}
