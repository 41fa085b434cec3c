package sim

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// listed is the shape of an agreed value: the input it was built from and
// what was derived from it.
type listed struct {
	from []int
	sum  int
}

type listedKey struct{}

// agreedSum derives the sum of a node's list through Agreed, counting builds.
func agreedSum(env *Env, key any, mine []int, builds *atomic.Int32) *listed {
	return Agreed(env, key,
		func(l *listed) bool { return slices.Equal(l.from, mine) },
		func() *listed {
			builds.Add(1)
			l := &listed{from: mine}
			for _, v := range mine {
				l.sum += v
			}
			return l
		})
}

// TestAgreedEqualInputBuildsOncePerShard: nodes that present equal input
// (each its own copy of it) get one value, and concurrently stepped shards
// build at most once each before the first result lands.
func TestAgreedEqualInputBuildsOncePerShard(t *testing.T) {
	const n, shards = 256, 4
	g := graph.Path(n)
	var builds atomic.Int32
	got := make([]*listed, n)
	_, err := RunStep(g, Config{Engine: EngineStep, Shards: shards}, oneRound(func(env *Env) {
		got[env.ID()] = agreedSum(env, listedKey{}, []int{1, 2, 3}, &builds)
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if b := builds.Load(); b < 1 || b > shards {
		t.Fatalf("build ran %d times on %d shards", b, shards)
	}
	distinct := map[*listed]bool{}
	for id, l := range got {
		if l.sum != 6 {
			t.Fatalf("node %d: sum %d", id, l.sum)
		}
		distinct[l] = true
	}
	if len(distinct) > int(builds.Load()) {
		t.Fatalf("%d distinct values from %d builds", len(distinct), builds.Load())
	}
}

// TestAgreedDifferentInputBuildsOwn: a node whose input differs from the held
// value's gets what it would have built alone, whichever order the nodes come
// in and however often the slot changes hands; so does a later collective
// call under the same key.
func TestAgreedDifferentInputBuildsOwn(t *testing.T) {
	const n = 48
	g := graph.Path(n)
	input := func(id, call int) []int {
		if id%3 == 0 {
			return []int{id % 2, call} // two minorities, interleaved with
		}
		return []int{7, 8, call} // the majority
	}
	onEngines(t, func(t *testing.T, eng Engine) {
		var builds atomic.Int32
		var got [2][n]*listed
		_, err := RunStep(g, Config{Engine: eng}, oneRound(
			func(env *Env) { got[0][env.ID()] = agreedSum(env, listedKey{}, input(env.ID(), 0), &builds) },
			func(env *Env, _ Inbox) { got[1][env.ID()] = agreedSum(env, listedKey{}, input(env.ID(), 1), &builds) }))
		if err != nil {
			t.Fatal(err)
		}
		for call := range got {
			for id, l := range got[call] {
				want := input(id, call)
				sum := 0
				for _, v := range want {
					sum += v
				}
				if !slices.Equal(l.from, want) || l.sum != sum {
					t.Fatalf("call %d node %d: built from %v (sum %d), its input is %v", call, id, l.from, l.sum, want)
				}
			}
		}
		if b := int(builds.Load()); b < 6 {
			t.Fatalf("%d builds for 6 distinct inputs", b)
		}
	})
}

// TestAgreedSlotsAreKeyed: distinct keys are distinct slots, and a slot
// holding a value of another type is no match, not a panic.
func TestAgreedSlotsAreKeyed(t *testing.T) {
	type otherKey struct{ cluster int }
	g := graph.Path(6)
	onEngines(t, func(t *testing.T, eng Engine) {
		var builds atomic.Int32
		_, err := RunStep(g, Config{Engine: eng}, oneRound(func(env *Env) {
			for cluster := 0; cluster < 2; cluster++ {
				if l := agreedSum(env, otherKey{cluster}, []int{cluster}, &builds); l.sum != cluster {
					t.Errorf("node %d cluster %d: sum %d", env.ID(), cluster, l.sum)
				}
			}
			yes := func(int) bool { return true }
			if v := Agreed(env, otherKey{0}, yes, func() int { return 42 }); v != 42 {
				t.Errorf("node %d: an *listed slot answered an int caller with %d", env.ID(), v)
			}
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
	})
}
