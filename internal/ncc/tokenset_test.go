package ncc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestTokenSetMatchesMapOracle drives two nodes' token sets over one table,
// and a third over a table of its own, with random interleaved adds (a token
// held in full) and learns (an index taken from another set of the same
// table, as a flood delta hands it over), each against a map[Token]bool: what
// a set reports — sorted, by index, to sameAs — is its own oracle's content
// whatever the other sets did to the table, and an index means nothing in
// another table.
func TestTokenSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3000))
	shared, other := &tokenTable{index: map[Token]int32{}}, &tokenTable{index: map[Token]int32{}}
	sets := []*tokenSet{{tab: shared}, {tab: shared, bits: make([]uint64, 2)}, {tab: other}}
	oracles := []map[Token]bool{{}, {}, {}}
	randomToken := func() Token {
		return Token{A: int64(rng.Intn(64)), B: int64(rng.Intn(64)) - 32, C: rng.Int63n(1 << 40)}
	}
	check := func(op int) {
		for i, s := range sets {
			got := s.sorted()
			if len(got) != len(oracles[i]) || !slices.IsSortedFunc(got, func(a, b Token) int {
				return slices.Compare([]int64{a.A, a.B, a.C}, []int64{b.A, b.B, b.C})
			}) {
				t.Fatalf("op %d: set %d sorts to %d tokens (sorted: %v), oracle has %d", op, i, len(got), got, len(oracles[i]))
			}
			for _, tok := range got {
				if !oracles[i][tok] {
					t.Fatalf("op %d: set %d reports %v, which it was never given", op, i, tok)
				}
			}
			for _, idx := range s.appendIndices(nil) {
				if !oracles[i][s.tab.toks[idx]] {
					t.Fatalf("op %d: set %d holds index %d = %v, which it was never given", op, i, idx, s.tab.toks[idx])
				}
			}
		}
		same := len(oracles[0]) == len(oracles[1])
		for tok := range oracles[0] {
			same = same && oracles[1][tok]
		}
		if sets[0].sameAs(sets[1]) != same || sets[1].sameAs(sets[0]) != same {
			t.Fatalf("op %d: sameAs disagrees with the oracles, which say %v", op, same)
		}
		if sets[2].sameAs(sets[0]) && len(oracles[0]) > 0 {
			t.Fatalf("op %d: sets over two tables compare equal", op)
		}
	}
	for op := 0; op < 20000; op++ {
		i := rng.Intn(len(sets))
		s := sets[i]
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			tok := randomToken()
			s.add(tok)
			oracles[i][tok] = true
		case 4, 5, 6:
			// A delta from a peer on the same table: the index of a token the
			// peer knows. The set over the other table has no such peer.
			if i == 2 {
				continue
			}
			if from := sets[1-i].appendIndices(nil); len(from) > 0 {
				idx := from[rng.Intn(len(from))]
				tok := shared.toks[idx]
				if got, want := s.learn(idx), !oracles[i][tok]; got != want {
					t.Fatalf("op %d: learn(%d) = %v, oracle %v", op, idx, got, want)
				}
				oracles[i][tok] = true
			}
		default:
			if rng.Intn(40) == 0 {
				check(op)
			}
		}
	}
	check(-1)
	// The table is append-only and holds each presented token once.
	for _, tab := range []*tokenTable{shared, other} {
		if len(tab.toks) != len(tab.index) {
			t.Fatalf("table holds %d entries for %d distinct tokens", len(tab.toks), len(tab.index))
		}
		for idx, tok := range tab.toks {
			if tab.index[tok] != int32(idx) {
				t.Fatalf("entry %d = %v is indexed as %d", idx, tok, tab.index[tok])
			}
		}
	}
}

// TestTokenSetTablePerInstance: two disseminations (and a pipelined
// broadcast) in one run are three instances with three tables. The second
// dissemination spreads fewer tokens than the first, so an index of the first
// table that leaked into it would show up as a bit past its own table, or as
// a token of the first in its output.
func TestTokenSetTablePerInstance(t *testing.T) {
	g := graph.Grid(8, 8)
	n := g.N()
	first := func(id int) []Token { return []Token{{A: int64(id), B: 1, C: 1}} }
	second := func(id int) []Token {
		if id%16 != 3 {
			return nil
		}
		return []Token{{A: int64(-id), B: 2, C: 2}}
	}
	for _, eng := range simtest.Engines {
		var d1, d2 = make([]*DisseminateMachine, n), make([]*DisseminateMachine, n)
		pb := make([]*PipelinedBroadcastMachine, n)
		_, err := sim.RunStep(g, sim.Config{Seed: 3, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return sim.Sequence(
				func(env *sim.Env) sim.StepProgram {
					d1[id] = NewDisseminateMachine(env, first(id), n, 1, DisseminateParams{})
					return d1[id]
				},
				func(env *sim.Env) sim.StepProgram {
					d2[id] = NewDisseminateMachine(env, second(id), n/16, 1, DisseminateParams{})
					return d2[id]
				},
				func(env *sim.Env) sim.StepProgram {
					pb[id] = NewPipelinedBroadcastMachine(env, second(id), 1)
					return pb[id]
				},
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		tabs := []*tokenTable{d1[0].known.tab, d2[0].known.tab, pb[0].known.tab}
		if tabs[0] == tabs[1] || tabs[1] == tabs[2] || tabs[0] == tabs[2] {
			t.Fatalf("%s: instances share a token table", eng)
		}
		if len(tabs[0].toks) != n || len(tabs[1].toks) != n/16 || len(tabs[2].toks) != n/16 {
			t.Fatalf("%s: tables hold %d, %d and %d tokens, want %d, %d and %d",
				eng, len(tabs[0].toks), len(tabs[1].toks), len(tabs[2].toks), n, n/16, n/16)
		}
		for id := 0; id < n; id++ {
			for i, known := range []*tokenSet{&d1[id].known, &d2[id].known, &pb[id].known} {
				if known.tab != tabs[i] {
					t.Fatalf("%s: node %d, instance %d: not on the instance's table", eng, id, i)
				}
				if idx := known.appendIndices(nil); len(idx) != len(tabs[i].toks) {
					t.Fatalf("%s: node %d, instance %d: knows indices %v of a %d-token table", eng, id, i, idx, len(tabs[i].toks))
				}
			}
			if len(d1[id].Out) != n || !slices.Equal(d2[id].Out, d2[0].Out) || !slices.Equal(pb[id].Out, d2[0].Out) {
				t.Fatalf("%s: node %d: outputs %d tokens, %v and %v; want %d, and %v twice", eng, id, len(d1[id].Out), d2[id].Out, pb[id].Out, n, d2[0].Out)
			}
		}
		for _, tok := range d2[0].Out {
			if tok.B != 2 {
				t.Fatalf("%s: the second dissemination delivered %v", eng, tok)
			}
		}
	}
}
