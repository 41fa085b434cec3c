package ncc

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// runDisseminate runs one dissemination and returns every node's finished
// machine.
func runDisseminate(t *testing.T, g *graph.Graph, cfg sim.Config, mine func(id int) []Token, k, ell int) []*DisseminateMachine {
	t.Helper()
	ms := make([]*DisseminateMachine, g.N())
	_, err := sim.RunStep(g, cfg, func(env *sim.Env) sim.StepProgram {
		ms[env.ID()] = NewDisseminateMachine(env, mine(env.ID()), k, ell, DisseminateParams{})
		return ms[env.ID()]
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestAgreedDisseminateSharesOut: when every node learns every token, the
// sorted output exists once — one copy on a single shard, at most one per
// shard otherwise — and is what each node's own set sorts to.
func TestAgreedDisseminateSharesOut(t *testing.T) {
	g := graph.Grid(16, 16)
	n := g.N()
	mine := func(id int) []Token {
		if id%6 != 0 {
			return nil
		}
		return []Token{{A: int64(id), B: int64(id + 1), C: 3}}
	}
	k := (n + 5) / 6
	for _, shards := range []int{1, 4} {
		ms := runDisseminate(t, g, sim.Config{Seed: 5, Shards: shards}, mine, k, 1)
		copies := map[*Token]bool{}
		for id, m := range ms {
			if len(m.Out) != k || !slices.Equal(m.Out, m.known.sorted()) {
				t.Fatalf("%d shards: node %d: Out is not its own sorted set (%d of %d tokens)", shards, id, len(m.Out), k)
			}
			copies[&m.Out[0]] = true
		}
		if len(copies) > shards {
			t.Errorf("%d shards: %d copies of one output", shards, len(copies))
		}
		if shards == 1 && &ms[0].Out[0] != &ms[n-1].Out[0] {
			t.Error("node 0 and node n-1 hold separate copies")
		}
	}
}

// TestAgreedDisseminateMissesGetTheirOwn forces disagreement: node 0 holds
// more tokens than the declared per-node bound lets it balance, so the rest
// never leave its flood radius, which is shorter than the path. Node by node
// the output must be exactly what the node's own set sorts to, on every
// engine, although the slot keeps offering the neighbours' longer list.
func TestAgreedDisseminateMissesGetTheirOwn(t *testing.T) {
	g := graph.Path(128)
	const held = 30
	mine := func(id int) []Token {
		var out []Token
		if id == 0 {
			for i := 0; i < held; i++ {
				out = append(out, Token{A: 0, B: int64(i + 1), C: int64(i)})
			}
		}
		return out
	}
	for _, eng := range simtest.Engines {
		ms := runDisseminate(t, g, sim.Config{Seed: 2, Engine: eng}, mine, held, 1)
		lengths := map[int]bool{}
		for id, m := range ms {
			if !slices.Equal(m.Out, m.known.sorted()) {
				t.Fatalf("%s: node %d: Out %v is not its own set %v", eng, id, m.Out, m.known.sorted())
			}
			lengths[len(m.Out)] = true
		}
		if len(ms[0].Out) != held || len(lengths) < 2 {
			t.Fatalf("%s: no node missed a token (lengths %v): the instance forces no disagreement", eng, lengths)
		}
	}
}

// TestAgreedDerivedFollowsTheTokens: Derived hands a node the value built
// from its own list — the shared one when the lists are equal, storage shared
// or not, and its own when they differ.
func TestAgreedDerivedFollowsTheTokens(t *testing.T) {
	type key struct{}
	g := graph.Path(9)
	list := func(id int) []Token {
		if id%4 == 3 {
			return []Token{{A: 1}}
		}
		return []Token{{A: 1}, {A: 2}}
	}
	var got [9][]int64
	_, err := sim.RunStep(g, sim.Config{Shards: 1}, func(env *sim.Env) sim.StepProgram {
		return sim.Sequence(sim.Finish(func(env *sim.Env) {
			got[env.ID()] = Derived(env, key{}, list(env.ID()), func(ts []Token) []int64 {
				out := make([]int64, len(ts))
				for i, t := range ts {
					out[i] = t.A
				}
				return out
			})
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range got {
		want := []int64{1, 2}[:len(list(id))]
		if !slices.Equal(got[id], want) {
			t.Fatalf("node %d: %v, want %v", id, got[id], want)
		}
	}
	if &got[0][0] != &got[2][0] {
		t.Error("nodes 0 and 2 presented equal lists and got separate values")
	}
}

// TestAgreedOutputsMatchPin freezes, node by node and on every engine, what
// the two token collectives hand out where the nodes do not all end up knowing
// the same set — literals recorded before a node's known set became a bitset
// over the instance's token table, so that neither side of the comparison is
// the code under test: the forced-disagreement dissemination above, and a
// pipelined broadcast in which nodes fill between none and all of their slots
// and several hold equal tokens. When the node streams became SplitMix64,
// only the dissemination's drawn LocalMsgs was re-recorded; both output
// hashes are the recorded ones.
func TestAgreedOutputsMatchPin(t *testing.T) {
	const held = 30
	dissPin := simtest.Pin{Metrics: sim.Metrics{Rounds: 1076, GlobalMsgs: 903, GlobalBits: 52374, LocalMsgs: 604, LocalBits: 50379, MaxGlobalSend: 7, MaxGlobalRecv: 3}, Sum: 0x9d1638e9376f4ba8}
	simtest.Machines(t, "disseminate with misses", graph.Path(128), 2, dissPin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		var mine []Token
		if env.ID() == 0 {
			for i := 0; i < held; i++ {
				mine = append(mine, Token{A: 0, B: int64(i + 1), C: int64(i)})
			}
		}
		m := NewDisseminateMachine(env, mine, held, 1, DisseminateParams{})
		return sim.Then(m, func(*sim.Env) { emit(tokenWords(m.Out)...) })
	})

	const ell = 3
	pipePin := simtest.Pin{Metrics: sim.Metrics{Rounds: 37, GlobalMsgs: 180, GlobalBits: 7200, MaxGlobalSend: 4, MaxGlobalRecv: 2}, Sum: 0xfaf8017c997d0c94}
	simtest.Machines(t, "pipelined with duplicates", graph.Cycle(11), 6, pipePin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		id := env.ID()
		mine := make([]Token, id%(ell+2)) // 0..ell+1 tokens: the last one is dropped
		for j := range mine {
			mine[j] = Token{A: int64(id % 4), B: int64(j), C: -1}
		}
		m := NewPipelinedBroadcastMachine(env, mine, ell)
		return sim.Then(m, func(*sim.Env) { emit(tokenWords(m.Out)...) })
	})
}
