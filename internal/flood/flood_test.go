package flood

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// instance is a flood problem: every node's scope, and per flood its origin
// count and what each node injects, in ascending origin order (nothing, for
// about a third of the nodes of a node-ID flood).
type instance struct {
	g       *graph.Graph
	scope   []int
	rounds  int
	origins []int           // [flood]
	inj     [][][]injection // [flood][node]
}

// injection is one record a node injects.
type injection struct {
	origin int
	val    []int64
}

func vecWords(v []int64) int64 { return 2 + int64(len(v)) }

// refRec and refDelta are the reference flood's wire format: the scope
// travels with every record and the word total is recomputed per call.
type refRec struct {
	Scope, Origin int
	Val           []int64
}

type refDelta []refRec

func (d refDelta) words() (w int64) {
	for _, r := range d {
		w += vecWords(r.Val)
	}
	return w
}

// refFlood is the map-based reference: a fresh seen-map per flood, a fresh
// delta per round, the scope compared per record, called every round. A
// round's first arrivals are sorted by origin before they are kept and sent,
// which is the kernel's wire order.
func refFlood(env *sim.Env, scope, rounds int, mine []injection, tr *trace) sim.StepProgram {
	seen := map[int]bool{}
	var next refDelta
	hear := func(r refRec) {
		if r.Scope == scope && !seen[r.Origin] {
			seen[r.Origin] = true
			next = append(next, r)
		}
	}
	keep := func() {
		slices.SortFunc(next, func(a, b refRec) int { return cmp.Compare(a.Origin, b.Origin) })
		for _, r := range next {
			tr.First = append(tr.First, first{env.Round(), r.Origin, r.Val[0]})
		}
	}
	for _, j := range mine {
		hear(refRec{scope, j.origin, j.val})
	}
	keep()
	return &sim.Loop{
		Rounds: rounds,
		Send: func(env *sim.Env, i int) {
			if len(next) > 0 {
				env.BroadcastLocalWords(next, next.words())
			}
		},
		Recv: func(env *sim.Env, in sim.Inbox, i int) {
			next = nil
			for _, lm := range in.Local {
				d := lm.Payload.(refDelta)
				h := heard{Round: env.Round(), From: lm.From, Words: d.words()}
				for _, r := range d {
					h.Origins = append(h.Origins, r.Origin)
				}
				tr.Heard = append(tr.Heard, h)
				for _, r := range d {
					hear(r)
				}
			}
			keep()
		},
	}
}

// runMode is how run floods the instance: the reference, or the kernel with
// one State per node started once per flood (like a routing Session's) or a
// fresh State, hence a new role, per flood.
type runMode int

const (
	reference runMode = iota
	restarted
	freshRoles
)

// run floods the instance's floods one after another and returns every
// node's trace. The kernel starts each flood in the very round segment the
// flood before finished in, while neighbours in the other shards still read
// its last delta from the node's pair (go test -race sees a Start that
// resets that slot). It fails the test on a delta whose origin words are
// not strictly ascending and nonzero, and on a node whose accumulator is
// not all zero after its Step.
func (in *instance) run(t *testing.T, eng sim.Engine, mode runMode) ([]trace, sim.Metrics) {
	t.Helper()
	traces := make([]trace, in.g.N())
	m, err := sim.RunStep(in.g, sim.Config{Engine: eng, Seed: 1, Shards: 3}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		tr := &traces[id]
		st := &State[[]int64]{}
		var phases []func(*sim.Env) sim.StepProgram
		for f, inj := range in.inj {
			phases = append(phases, func(env *sim.Env) sim.StepProgram {
				switch mode {
				case reference:
					return refFlood(env, in.scope[id], in.rounds, inj[id], tr)
				case freshRoles:
					st = &State[[]int64]{}
				}
				st.Start(env, in.origins[f], in.scope[id], in.rounds, vecWords, func(origin int, val []int64) {
					tr.First = append(tr.First, first{env.Round(), origin, val[0]})
				})
				for _, j := range inj[id] {
					st.Inject(j.origin, j.val)
				}
				// The flood's first segment only sends: the inbox it finds
				// there is the last one of the flood before.
				began := env.Round()
				return sim.StepFunc(func(env *sim.Env) bool {
					for _, lm := range env.Incoming().Local {
						if env.Round() == began {
							break
						}
						d := lm.Payload.(*delta)
						if d.scope != in.scope[lm.From] {
							t.Errorf("node %d sent a delta of scope %d, its own is %d", lm.From, d.scope, in.scope[lm.From])
						}
						h := heard{Round: env.Round(), From: lm.From, Words: d.words}
						for j, ow := range d.sets {
							if ow.bits == 0 || j > 0 && ow.w <= d.sets[j-1].w {
								t.Errorf("node %d sent a delta whose words are not ascending and nonzero: %+v", lm.From, d.sets)
							}
							for b := ow.bits; b != 0; b &= b - 1 {
								h.Origins = append(h.Origins, ow.w<<6+bits.TrailingZeros64(b))
							}
						}
						tr.Heard = append(tr.Heard, h)
					}
					done := st.Step(env)
					if p := st.pair; slices.Max(p.acc)|slices.Max(p.touched) != 0 {
						t.Errorf("node %d round %d: accumulator not cleared: acc %x, touched %x", id, env.Round(), p.acc, p.touched)
					}
					return done
				})
			})
		}
		return sim.Sequence(phases...)
	})
	if err != nil {
		t.Fatalf("%v (mode %d): %v", eng, mode, err)
	}
	return traces, m
}

// randomInstance draws a sparse graph split into `clusters` scopes by
// nearest centre (so scopes border each other), two node-ID floods with
// different origin sets (about a third of the nodes inject nothing), and a
// radius.
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
		inj := make([][]injection, n)
		for v := range inj {
			if rng.Intn(3) > 0 {
				inj[v] = []injection{{v, randomVal(rng)}}
			}
		}
		in.origins, in.inj = append(in.origins, n), append(in.inj, inj)
	}
	return in
}

func randomVal(rng *rand.Rand) []int64 {
	val := make([]int64, 1+rng.Intn(4))
	val[0] = rng.Int63()
	return val
}

// withOrigins replaces in's floods by one flood per count: about two thirds
// of its origins are injected, each at one node drawn from a fifth of the
// nodes, so a node injects several.
func (in *instance) withOrigins(rng *rand.Rand, counts ...int) {
	n := in.g.N()
	hosts := rng.Perm(n)[:max(1, n/5)]
	in.origins, in.inj = counts, nil
	for _, k := range counts {
		inj := make([][]injection, n)
		for o := range k {
			if rng.Intn(3) > 0 {
				v := hosts[rng.Intn(len(hosts))]
				inj[v] = append(inj[v], injection{o, randomVal(rng)})
			}
		}
		in.inj = append(in.inj, inj)
	}
}

// TestFloodMatchesMapReference holds the kernel to the 20-line flood it
// replaced six copies of: on random graphs with several scopes (every border
// edge is a foreign-scope neighbour), nodes that inject nothing, and a radius
// well below the diameter, every node sees the same deltas from the same
// neighbours in the same rounds with the same word totals, hears every
// origin first in the same round, and the run costs the same Metrics. Each
// node's State runs two floods with different origins, so a bitset that was
// not cleared by Start would suppress the second flood's first arrivals.
func TestFloodMatchesMapReference(t *testing.T) { matchesMapReference(t, restarted) }

// TestFloodMatchesMapReferenceAcrossRoles is the same check with a fresh State
// per flood: two States of one node, each of its own role, chained in one
// round segment, which share the node's delta pair and nothing else.
func TestFloodMatchesMapReferenceAcrossRoles(t *testing.T) { matchesMapReference(t, freshRoles) }

func matchesMapReference(t *testing.T, mode runMode) {
	rng := rand.New(rand.NewSource(5))
	cut := 0 // trials in which the radius kept an origin from a node of its scope
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(70)
		in := randomInstance(rng, n, 1+rng.Intn(5), 2+rng.Intn(5))
		want, wantM := in.run(t, sim.EngineLegacy, reference)
		arrivals, reachable := 0, 0
		for v, tr := range want {
			arrivals += len(tr.First)
			for _, inj := range in.inj {
				for o := range inj {
					if inj[o] != nil && in.scope[o] == in.scope[v] {
						reachable++
					}
				}
			}
		}
		if arrivals < reachable {
			cut++
		}
		for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
			got, gotM := in.run(t, eng, mode)
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

// TestFloodMatchesMapReferenceOverOriginCounts holds the kernel to the
// reference on floods whose origins are not the node IDs, as dissemination's
// token indices are not: fewer origins than nodes and more (several words of
// them), each injected at one of a few nodes, so a node injects several. The
// chained case runs floods of about 0.6n, 2.5n and n origins on fresh
// States, each started in the segment the last one ended in: the node's
// accumulator grows at the second Start and serves the third as it is, and
// every role's value tables have its own count.
func TestFloodMatchesMapReferenceOverOriginCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name string
		mode runMode
		k    func(n int) []int
	}{
		{"fewer", restarted, func(n int) []int { return []int{n * 3 / 5, n * 3 / 5} }},
		{"more", restarted, func(n int) []int { return []int{n*5/2 + 7, n*5/2 + 7} }},
		{"chained", freshRoles, func(n int) []int { return []int{n * 3 / 5, n*5/2 + 7, n} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				n := 40 + rng.Intn(60)
				in := randomInstance(rng, n, 1+rng.Intn(3), 3+rng.Intn(4))
				in.withOrigins(rng, c.k(n)...)
				want, wantM := in.run(t, sim.EngineLegacy, reference)
				for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
					got, gotM := in.run(t, eng, c.mode)
					if gotM != wantM {
						t.Errorf("trial %d on %v: Metrics %+v, reference %+v", trial, eng, gotM, wantM)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d on %v: traces diverge from the reference", trial, eng)
					}
				}
			}
		})
	}
}

// TestFloodDeltaWords: on networks of several 64-origin words, every delta
// lists its origins strictly ascending (run checks each one), its word
// charge and origins equal the reference's, and every node's accumulator is
// all zero after every round (run checks that too), across two floods with
// different origins chained in one round segment.
func TestFloodDeltaWords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{130, 300} {
		in := randomInstance(rng, n, 2, 8)
		want, _ := in.run(t, sim.EngineLegacy, reference)
		multi := 0 // deltas spanning more than one word
		for _, tr := range want {
			for _, h := range tr.Heard {
				if h.Origins[0]>>6 != h.Origins[len(h.Origins)-1]>>6 {
					multi++
				}
			}
		}
		if multi == 0 {
			t.Fatalf("n = %d: no delta spans two words", n)
		}
		for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
			got, _ := in.run(t, eng, restarted)
			for v := range want {
				if !reflect.DeepEqual(got[v].Heard, want[v].Heard) {
					t.Fatalf("n = %d on %v: deltas heard by node %d diverge from the reference:\n got %+v\nwant %+v",
						n, eng, v, got[v].Heard, want[v].Heard)
				}
			}
		}
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
		st.Start(env, env.N(), 0, 0, func(struct{}) int64 { return 1 }, nil)
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

// TestHeardReadsOnlyWhatWasHeard: the value table is shared by the whole
// flood, but Heard answers from it only at origins this node heard — not at
// an origin of another scope, nor at one of its own scope that has not
// reached it yet, although both have written their slots.
func TestHeardReadsOnlyWhatWasHeard(t *testing.T) {
	g := graph.Path(6)
	scope := func(id int) int { return id / 3 } // {0,1,2} and {3,4,5}
	states := make([]*State[int], g.N())
	st, err := sim.NewStepper(g, sim.Config{Engine: sim.EngineStep, Shards: 1}, func(env *sim.Env) sim.StepProgram {
		s := &State[int]{}
		states[env.ID()] = s
		s.Start(env, env.N(), scope(env.ID()), 4, func(int) int64 { return 1 }, nil)
		s.Inject(env.ID(), 10+env.ID())
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	s := states[0]
	heard := func(o int) string {
		v, ok := s.Heard(o)
		return fmt.Sprint(v, ok)
	}
	// Every node has injected; no delta has been sent.
	if got := heard(0); got != "10 true" {
		t.Errorf("before the first round, node 0's own record: Heard(0) = %s, want 10 true", got)
	}
	if got := heard(1); got != "0 false" || s.tabs[s.cur][1] != 11 {
		t.Errorf("before the first round: Heard(1) = %s (table slot %d), want 0 false (slot 11)", got, s.tabs[s.cur][1])
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	for o, want := range []string{"10 true", "11 true", "12 true", "0 false", "0 false", "0 false"} {
		if got := heard(o); got != want {
			t.Errorf("after the flood: node 0's Heard(%d) = %s (table slot %d), want %s", o, got, s.tabs[s.cur][o], want)
		}
	}
	for _, o := range []int{-1, 6, 64} {
		if got := heard(o); got != "0 false" {
			t.Errorf("Heard(%d) = %s, want 0 false", o, got)
		}
	}
}

// TestHeardOutlivesNeighbourRestart: a flood's values stay readable through
// Heard in the round segment it finished in, after neighbours have already
// started the State's next flood and injected into it. One shard steps the
// nodes in ID order, so every node but node 0 reads after node 0 injected;
// with one value table per role it would read flood 2's value there.
func TestHeardOutlivesNeighbourRestart(t *testing.T) {
	g := graph.Path(8)
	const rounds = 8 // past the diameter: every node hears every origin
	restarted, late := 0, 0
	_, err := sim.RunStep(g, sim.Config{Engine: sim.EngineStep, Shards: 1}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		s := &State[int]{}
		flood := func(k int) func(*sim.Env) sim.StepProgram {
			return func(env *sim.Env) sim.StepProgram {
				s.Start(env, env.N(), 0, rounds, func(int) int64 { return 1 }, nil)
				s.Inject(id, 100*k+id)
				if k == 2 {
					restarted++
				}
				return s
			}
		}
		read := sim.Finish(func(env *sim.Env) {
			if restarted > 0 {
				late++
			}
			for o := range env.N() {
				if v, ok := s.Heard(o); !ok || v != 100+o {
					t.Errorf("node %d after flood 1 (%d nodes restarted): Heard(%d) = %d %v, want %d true", id, restarted, o, v, ok, 100+o)
				}
			}
		})
		return sim.Sequence(flood(1), read, flood(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if late != g.N()-1 {
		t.Fatalf("%d nodes read flood 1 after a neighbour restarted, want %d", late, g.N()-1)
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
		var got []P
		flood := func(env *sim.Env) sim.StepProgram {
			got = got[:0]
			s.Start(env, env.N(), id/32, rounds, words, func(_ int, v P) { got = append(got, v) })
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

// TestFloodSecondRoleZeroAlloc: a node's floods share its delta pair, so a
// fresh State of a second role (its own payload type, value tables and
// bitset) floods without allocating once the node's first role has peaked.
// Both floods have the same scopes, origins and even length, so each delta
// of the second is as long as the first's in the same slot.
func TestFloodSecondRoleZeroAlloc(t *testing.T) {
	g := graph.Grid(8, 8)
	const rounds, measured = 12, 8
	st, err := sim.NewStepper(g, sim.Config{Engine: sim.EngineStep, Shards: 1}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		vec := make([]int64, 8)
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				s := &State[bool]{}
				s.Start(env, env.N(), id/32, rounds, func(bool) int64 { return 2 }, nil)
				s.Inject(id, id%2 == 0)
				return s
			},
			func(env *sim.Env) sim.StepProgram {
				s := &State[[]int64]{}
				s.Start(env, env.N(), id/32, rounds, vecWords, nil)
				s.Inject(id, vec)
				return s
			},
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second flood starts, and arms its State, in round `rounds`; the
	// window opens on the round after.
	if st.Advance(rounds + 1) {
		t.Fatal("run finished before the second flood")
	}
	if allocs := testing.AllocsPerRun(measured-1, func() { st.Advance(1) }); allocs != 0 {
		t.Errorf("got %v allocs/round in rounds 2..%d of a second role's first flood, want 0", allocs, measured+1)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestFloodRefusesOverlap: two floods of one node in overlapping rounds
// would write one slot of its pair for two different deltas, so the second
// Start fails the run, naming the node and the round.
func TestFloodRefusesOverlap(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
		_, err := sim.RunStep(graph.Path(4), sim.Config{Engine: eng}, func(env *sim.Env) sim.StepProgram {
			a, b := &State[int]{}, &State[int]{}
			a.Start(env, env.N(), 0, 6, func(int) int64 { return 1 }, nil)
			a.Inject(env.ID(), env.ID())
			return sim.StepFunc(func(env *sim.Env) bool {
				// Every node hears its neighbours in round 1.
				if env.ID() == 1 && env.Round() == 1 {
					b.Start(env, env.N(), 0, 6, func(int) int64 { return 1 }, nil)
				}
				return a.Step(env)
			})
		})
		const want = "node 1 panicked: flood: node 1 starts a flood in round 1, before its running flood ends in round 6"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want it to contain %q", eng, err, want)
		}
	}
}

// TestFloodRefusesLateFirstStep: Inject stages the origin in the slot of the
// Start round, so a flood first stepped in a later round fails the run rather
// than send a delta without it.
func TestFloodRefusesLateFirstStep(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
		_, err := sim.RunStep(graph.Path(4), sim.Config{Engine: eng}, func(env *sim.Env) sim.StepProgram {
			s := &State[int]{}
			s.Start(env, env.N(), 0, 4, func(int) int64 { return 1 }, nil)
			s.Inject(env.ID(), env.ID())
			late := env.ID() == 1
			return sim.StepFunc(func(env *sim.Env) bool {
				if late {
					late = false
					return false
				}
				return s.Step(env)
			})
		})
		const want = "node 1 panicked: flood: node 1 started a flood in round 0 but first stepped it in round 1"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want it to contain %q", eng, err, want)
		}
	}
}
