package sim

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// chatterProgram is a deliberately messy workload for engine-equivalence
// tests: per-node random local and global traffic, uneven finishing times,
// and an accumulator that is sensitive to both inbox ordering and content.
// It is written in the blocking form only the legacy engine executes;
// stepChatter (step_test.go) is the same workload as a machine.
func chatterProgram(out []int64) program {
	return func(env *Env) {
		rounds := 6 + env.ID()%5
		acc := int64(env.ID())
		for r := 0; r < rounds; r++ {
			for _, nb := range env.Neighbors() {
				if env.Rand().Intn(2) == 0 {
					env.SendLocal(nb.To, int64(env.ID()*1000+r))
				}
			}
			sends := env.Rand().Intn(env.GlobalCap() + 1)
			for s := 0; s < sends; s++ {
				env.SendGlobal(env.Rand().Intn(env.N()), Kind(r), int64(env.ID()), int64(r), int64(s), 7)
			}
			in := env.barrier()
			for _, lm := range in.Local {
				acc = acc*31 + int64(lm.From)
				if v, ok := lm.Payload.(int64); ok {
					acc = acc*31 + v
				}
			}
			for _, gm := range in.Global {
				acc = acc*31 + int64(gm.Src)*8191 + gm.F1*13 + gm.F2
			}
		}
		out[env.ID()] = acc
	}
}

// runChatter runs the chatter machine under cfg.
func runChatter(t *testing.T, g *graph.Graph, cfg Config) ([]int64, Metrics) {
	t.Helper()
	out := make([]int64, g.N())
	m, err := RunStep(g, cfg, func(env *Env) StepProgram { return newStepChatter(env, out) })
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// TestEnginesAgree is the core differential test: for several topologies
// and seeds, the step engine must produce per-node results and Metrics
// byte-identical to the legacy reference.
func TestEnginesAgree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":     graph.Grid(6, 7),
		"path":     graph.Path(33),
		"complete": graph.Complete(17),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			legacyOut, legacyM := runChatter(t, g, Config{Seed: seed, Engine: EngineLegacy})
			out, m := runChatter(t, g, Config{Seed: seed, Engine: EngineStep})
			if !reflect.DeepEqual(legacyOut, out) {
				t.Fatalf("%s seed %d: per-node results differ between legacy and step", name, seed)
			}
			if legacyM != m {
				t.Fatalf("%s seed %d: metrics differ: legacy %+v step %+v", name, seed, legacyM, m)
			}
		}
	}
}

// TestShardCountInvariance: results must not depend on the shard count
// (delivery order is (sender ID, send order) by construction, whatever the
// sharding) — on a topology whose local traffic crosses every shard boundary
// and on one where it crosses only adjacent ones. TestStepShardCountInvariance
// covers the grid.
func TestShardCountInvariance(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"complete": graph.Complete(40), "path": graph.Path(40)} {
		baseOut, baseM := runChatter(t, g, Config{Seed: 11, Shards: 1})
		for _, shards := range []int{2, 3, 7, 16, 40, 1000} {
			out, m := runChatter(t, g, Config{Seed: 11, Shards: shards})
			if !reflect.DeepEqual(baseOut, out) {
				t.Fatalf("%s shards=%d: results differ from shards=1", name, shards)
			}
			if m != baseM {
				t.Fatalf("%s shards=%d: metrics differ: %+v vs %+v", name, shards, m, baseM)
			}
		}
	}
}

// TestShardedInboxReuseSafe: the inbox Incoming returns is the node's for
// the whole round segment even though delivery recycles buffers. A machine
// that reads its inbox as late as legally possible — after staging its own
// sends — must see intact data.
func TestShardedInboxReuseSafe(t *testing.T) {
	g := graph.Path(8)
	sums := make([]int64, g.N())
	_, err := RunStep(g, Config{Seed: 4}, func(*Env) StepProgram {
		r := 0
		return StepFunc(func(env *Env) bool {
			if r < 20 {
				env.SendGlobal((env.ID()+1)%env.N(), 0, int64(r), 0, 0, 0)
			}
			for _, gm := range env.Incoming().Global {
				sums[env.ID()] += gm.F0
			}
			r++
			return r > 20
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(20 * 19 / 2) // rounds 0..19 from the left neighbor
	for v, s := range sums {
		if s != want {
			t.Fatalf("node %d accumulated %d, want %d", v, s, want)
		}
	}
}

// TestEngineString pins the flag/benchmark labels, and that a value outside
// the set is an error to run, not an alias of some engine.
func TestEngineString(t *testing.T) {
	if EngineStep.String() != "step" || EngineLegacy.String() != "legacy" || EngineDist.String() != "dist" {
		t.Fatalf("engine names changed: %q / %q / %q", EngineStep, EngineLegacy, EngineDist)
	}
	if Engine(0) != EngineStep {
		t.Fatal("the zero Engine is not EngineStep")
	}
	if _, err := RunStep(graph.Path(2), Config{Engine: Engine(3)}, func(*Env) StepProgram { return idle(1) }); err == nil {
		t.Fatal("an Engine outside the set ran")
	}
}
