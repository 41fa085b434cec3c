package warm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/warm"
)

// slots is the test entry: one word per node.
type slots struct{ val []int64 }

func newStore() *warm.Store[int, slots] {
	return warm.NewStore(
		func(key int) string { return fmt.Sprintf("key %d", key) },
		func(n int) *slots { return &slots{val: make([]int64, n)} })
}

// missRounds is what the test construction costs when it is not bound from
// the store; the agreement costs 2·ceil(log2 n) rounds on top, hit or miss.
const missRounds = 3

// guard is one node's guarded construction of the word want under key. A
// slot is stale unless it holds want; a hit emits (1, the bound word) in
// zero rounds; a miss emits 0, idles missRounds rounds and stores want,
// noting in stored (if non-nil) which entry the node was handed.
func guard(env *sim.Env, s *warm.Store[int, slots], key int, want int64, emit func(...int64), stored []*slots) sim.StepProgram {
	id := env.ID()
	return s.Guard(key,
		func(e *slots) bool { return e.val[id] != want },
		func(env *sim.Env, e *slots) sim.StepProgram {
			emit(1, e.val[id])
			return nil
		},
		func(env *sim.Env) sim.StepProgram {
			emit(0)
			return &sim.Loop{Rounds: missRounds}
		},
		func(env *sim.Env, e *slots) {
			e.val[id] = want
			if stored != nil {
				stored[id] = e
			}
		})
}

// The 4x4 grid's agreement is 2·4 rounds of a binomial tree: 8 rounds and 30
// global messages whichever way it goes.
var (
	pinMiss = simtest.Pin{Metrics: sim.Metrics{Rounds: 8 + missRounds, GlobalMsgs: 30, GlobalBits: 1200, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0xfacdc5acaceef525}
	pinHit  = simtest.Pin{Metrics: sim.Metrics{Rounds: 8, GlobalMsgs: 30, GlobalBits: 1200, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0x6cc713b656aefb35}
)

// TestGuardUnanimousHitBinds: a first run misses, pays the construction and
// populates the store; a second run with every slot fresh binds each node's
// own word in agreement-only rounds; and the trace hook fires once per
// agreement — at node 0 only — not once per node.
func TestGuardUnanimousHitBinds(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, eng := range simtest.Engines {
		s := newStore()
		var trace []string
		s.SetTrace(func(ev string) { trace = append(trace, ev) })
		run := func(name string, pin simtest.Pin) {
			simtest.Run(t, name, g, eng, 1, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
				return guard(env, s, 7, int64(env.ID()+1), emit, nil)
			})
		}
		run("miss", pinMiss)
		run("hit", pinHit)
		if want := []string{"key 7: rebuild", "key 7: hit"}; !reflect.DeepEqual(trace, want) {
			t.Errorf("%s: trace %q, want %q", eng, trace, want)
		}
	}
}

// TestGuardOneStaleNodeRebuildsAll: one node whose slot no longer matches
// makes every node take the miss branch, all of them are handed the same
// run-shared entry to store into, and that entry replaces the cached one, so
// a third run hits and binds the new word.
func TestGuardOneStaleNodeRebuildsAll(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, eng := range simtest.Engines {
		s := newStore()
		word := func(id int) int64 { return int64(id + 1) }
		run := func(name string, pin simtest.Pin, stored []*slots) {
			simtest.Run(t, name, g, eng, 1, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
				return guard(env, s, 7, word(env.ID()), emit, stored)
			})
		}
		run("populate", pinMiss, nil)
		before := s.Lookup(7)
		word = func(id int) int64 {
			if id == 5 {
				return 99
			}
			return int64(id + 1)
		}
		stored := make([]*slots, g.N())
		run("one stale node", pinMiss, stored)
		after := s.Lookup(7)
		if after == nil || after == before {
			t.Fatalf("%s: the rebuild did not replace the cached entry", eng)
		}
		for id, e := range stored {
			if e != after {
				t.Errorf("%s: node %d stored into %p, want the run-shared entry %p the store now holds", eng, id, e, after)
			}
		}
		if s.Len() != 1 {
			t.Errorf("%s: re-populating a key left %d entries, want 1", eng, s.Len())
		}
		run("hit after rebuild", pinHitStale, nil)
	}
}

// pinHitStale is pinHit with node 5 bound to its new word.
var pinHitStale = simtest.Pin{Metrics: pinHit.Metrics, Sum: 0x3ccb62a38f6ad6b0}

const sweepKeys = warm.MaxEntries + 2

// TestGuardEvictionIsFIFO chains guards over MaxEntries+2 distinct keys in
// one run (so the run-shared entries of repeated constructions stay
// distinct): the store never exceeds MaxEntries, the two oldest keys are the
// ones evicted, insertion order survives, and a second pass over the same
// keys in the same order rebuilds every one of them — each key was evicted
// two constructions before its turn — ending in the same state.
func TestGuardEvictionIsFIFO(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, eng := range simtest.Engines {
		s := newStore()
		for pass := 0; pass < 2; pass++ {
			simtest.Run(t, fmt.Sprintf("pass %d", pass), g, eng, 1, pinSweep, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
				phases := make([]func(*sim.Env) sim.StepProgram, sweepKeys)
				for key := range phases {
					phases[key] = func(env *sim.Env) sim.StepProgram {
						if n := s.Len(); n > warm.MaxEntries {
							t.Errorf("%s: store holds %d entries, cap %d", eng, n, warm.MaxEntries)
						}
						return guard(env, s, key, 1, emit, nil)
					}
				}
				return sim.Sequence(phases...)
			})
			var order []int
			for key := range s.Each {
				order = append(order, key)
			}
			want := make([]int, warm.MaxEntries)
			for i := range want {
				want[i] = i + 2
			}
			if !reflect.DeepEqual(order, want) {
				t.Errorf("%s pass %d: store holds keys %v, want %v", eng, pass, order, want)
			}
			if s.Lookup(0) != nil || s.Lookup(1) != nil {
				t.Errorf("%s pass %d: the two oldest keys were not the ones evicted", eng, pass)
			}
		}
	}
}

// pinSweep is sweepKeys misses in a row, every node emitting 0 each time.
var pinSweep = simtest.Pin{Metrics: sim.Metrics{Rounds: sweepKeys * 11, GlobalMsgs: sweepKeys * 30, GlobalBits: sweepKeys * 1200, MaxGlobalSend: 1, MaxGlobalRecv: 1}, Sum: 0xa2b32c8412621725}
