package sim

import (
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/bitrand"
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
		"complete": complete(17),
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

// TestFinishedNodeInboxStaysEmpty: node 0 finishes in round 0 while node 1
// sends it one local and one global message per round for 1 000 rounds.
// Every engine counts those messages alike, and the legacy engine keeps none
// of them: a finished node never takes another barrier to hand them off.
func TestFinishedNodeInboxStaysEmpty(t *testing.T) {
	const rounds = 1000
	g := graph.Path(2)
	var want Metrics
	for i, eng := range []Engine{EngineLegacy, EngineStep, EngineDist} {
		var node0 *Env
		m, err := RunStep(g, Config{Engine: eng}, func(env *Env) StepProgram {
			if env.ID() == 0 {
				node0 = env
				return StepFunc(func(*Env) bool { return true })
			}
			return &Loop{Rounds: rounds, Send: func(env *Env, r int) {
				env.SendLocal(0, int64(r))
				env.SendGlobal(0, 1, int64(r), 0, 0, 0)
			}}
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if m.GlobalMsgs != rounds || m.LocalMsgs != rounds {
			t.Fatalf("%v: counted %d global and %d local messages, want %d each", eng, m.GlobalMsgs, m.LocalMsgs, rounds)
		}
		if i == 0 {
			want = m
			if len(node0.inLocal)+len(node0.inGlobal) != 0 {
				t.Fatalf("legacy: finished node 0 holds %d local and %d global messages, want none",
					len(node0.inLocal), len(node0.inGlobal))
			}
		} else if m != want {
			t.Fatalf("%v: metrics differ from legacy:\nlegacy %+v\n%v %+v", eng, want, eng, m)
		}
	}
}

// TestShardCountInvariance: results must not depend on the shard count
// (delivery order is (sender ID, send order) by construction, whatever the
// sharding) — on a topology whose local traffic crosses every shard boundary
// and on one where it crosses only adjacent ones. TestStepShardCountInvariance
// covers the grid.
func TestShardCountInvariance(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"complete": complete(40), "path": graph.Path(40)} {
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

// inboxDigest hashes everything an inbox holds, in order; an empty inbox
// hashes to 0 and a non-empty one never does.
func inboxDigest(in Inbox) uint64 {
	if len(in.Local) == 0 && len(in.Global) == 0 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(x int64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(int64(len(in.Local)))
	for _, lm := range in.Local {
		word(int64(lm.From))
		p, _ := lm.Payload.(int64)
		word(p)
	}
	word(int64(len(in.Global)))
	for _, gm := range in.Global {
		word(int64(gm.Src))
		word(int64(gm.Dst))
		word(int64(gm.Kind))
		word(gm.F0)
		word(gm.F1)
		word(gm.F2)
		word(gm.F3)
	}
	return h.Sum64() | 1
}

// inboxMix is the machine of TestInboxDigestShardCountInvariance. Node id
// sends in every (skip+1)-th round, skip = 1 + id%3, and sleeps through the
// skip rounds between, woken early by any message; nobody sends in the
// rounds of quiet, so the step loop fast-forwards over part of them; nodes
// finish at four different rounds while the others keep addressing them.
// It records, per round it is called in, the digest of what Incoming
// returned (a round it is not called in reads as empty).
func inboxMix(env *Env, digests [][]uint64, called [][]bool) StepProgram {
	const quietFrom, quietTo = 10, 19
	id, n := env.ID(), env.N()
	skip := 1 + id%3
	last := len(digests[id]) - 1 - 4*(id%4)
	sends := func(r int) bool { return r%(skip+1) == 0 && (r < quietFrom || r >= quietTo) }
	return StepFunc(func(env *Env) bool {
		r := env.Round()
		called[id][r] = true
		digests[id][r] = inboxDigest(env.Incoming())
		if r == last {
			return true
		}
		if sends(r) {
			for _, nb := range env.Neighbors() {
				if (nb.To+r)%3 != 0 {
					env.SendLocal(nb.To, int64(id*1000+r))
				}
			}
			env.SendGlobal((id*7+r)%n, Kind(r%5), int64(id), int64(r), int64(skip), 0)
		}
		next := r + 1
		for next < last && !sends(next) {
			next++
		}
		env.SleepUntil(next)
		return false
	})
}

// TestInboxDigestShardCountInvariance: what Incoming returns — per node and
// per round, digested — is the same on every engine and shard count,
// including for sleepers woken after one, two and three skipped rounds, for
// the wake-up after a fast-forward, and around nodes that finished while
// messages are still addressed to them.
func TestInboxDigestShardCountInvariance(t *testing.T) {
	g := graph.Grid(4, 5)
	const rounds = 40
	run := func(cfg Config) ([][]uint64, [][]bool, Metrics) {
		t.Helper()
		digests := make([][]uint64, g.N())
		called := make([][]bool, g.N())
		for v := range digests {
			digests[v] = make([]uint64, rounds+1)
			called[v] = make([]bool, rounds+1)
		}
		cfg.Seed = 3
		m, err := RunStep(g, cfg, func(env *Env) StepProgram { return inboxMix(env, digests, called) })
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return digests, called, m
	}
	want, called, wantM := run(Config{Engine: EngineStep, Shards: 1})
	if wantM.Rounds != rounds {
		t.Fatalf("run took %d rounds, want %d", wantM.Rounds, rounds)
	}
	skipped := 0
	for r := 1; r < rounds; r++ {
		any := false
		for v := range called {
			any = any || called[v][r]
		}
		if !any {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("the step loop called some machine in every round: nothing was fast-forwarded")
	}
	for _, cfg := range []Config{
		{Engine: EngineStep, Shards: 2},
		{Engine: EngineStep, Shards: 4},
		{Engine: EngineDist, DistWorkers: 2},
		{Engine: EngineLegacy},
	} {
		got, _, m := run(cfg)
		for v := range want {
			for r := range want[v] {
				if got[v][r] != want[v][r] {
					t.Errorf("%+v: node %d round %d read inbox %#x, want %#x", cfg, v, r, got[v][r], want[v][r])
				}
			}
		}
		if m != wantM {
			t.Errorf("%+v: metrics %+v, want %+v", cfg, m, wantM)
		}
	}
}

// TestStaleInboxReadDiverges: Incoming's slices are valid only during the
// Step call that reads them. A machine that reads the previous round's
// inbox in its next call sees that round's slots refilled on the step
// engine and poisoned on the legacy one, so the engines disagree on its
// result — the differential check reports the violation — while the same
// machine reading only the current inbox agrees.
func TestStaleInboxReadDiverges(t *testing.T) {
	g := graph.Path(6)
	run := func(eng Engine, stale bool) []int64 {
		t.Helper()
		out := make([]int64, g.N())
		_, err := RunStep(g, Config{Seed: 1, Engine: eng}, func(env *Env) StepProgram {
			var prev Inbox
			r := 0
			return StepFunc(func(env *Env) bool {
				in := env.Incoming()
				if stale {
					in, prev = prev, in
				}
				for _, lm := range in.Local {
					p, _ := lm.Payload.(int64)
					out[env.ID()] = out[env.ID()]*31 + int64(lm.From)*3 + p
				}
				for _, gm := range in.Global {
					out[env.ID()] = out[env.ID()]*31 + int64(gm.Src)*7 + int64(gm.Dst)
				}
				if r++; r > 5 {
					return true
				}
				// The same traffic every round: a stale slot holds what a
				// fresh one would, unless the engine poisons it.
				env.BroadcastLocal(int64(1))
				env.SendGlobal((env.ID()+1)%env.N(), 0, 0, 0, 0, 0)
				return false
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if step, legacy := run(EngineStep, false), run(EngineLegacy, false); !reflect.DeepEqual(step, legacy) {
		t.Fatalf("reading the current inbox: step %v, legacy %v", step, legacy)
	}
	if step, legacy := run(EngineStep, true), run(EngineLegacy, true); reflect.DeepEqual(step, legacy) {
		t.Fatalf("reading the previous round's inbox went unnoticed: both engines gave %v", step)
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

// complete returns the complete graph K_n with unit weights.
func complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v, 1)
		}
	}
	return g
}

// randDraws draws from its node's stream in rounds id%3 to 4 — so the
// streams are first used in different rounds, after other nodes have drawn
// — and finishes after round 4.
type randDraws struct{ draws *[]int64 }

func (r randDraws) Step(env *Env) bool {
	if env.Round() >= env.ID()%3 {
		*r.draws = append(*r.draws, env.Rand().Int63())
	}
	return env.Round() >= 4
}

// TestEnvRandShardCountInvariance: a node's stream is seeded where the node
// first asks for it, in whatever shard steps it, yet every node draws the
// same numbers on legacy and on step at 1, 2, 3 and 7 shards — those of its
// (seed, "node", ID) sub-stream.
func TestEnvRandShardCountInvariance(t *testing.T) {
	g := graph.Grid(6, 7)
	n := g.N()
	run := func(cfg Config) [][]int64 {
		draws := make([][]int64, n)
		if _, err := RunStep(g, cfg, func(env *Env) StepProgram { return randDraws{&draws[env.ID()]} }); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	want := make([][]int64, n)
	for id := range want {
		r := bitrand.NewSource(13).Named("node", id)
		for range 5 - id%3 {
			want[id] = append(want[id], r.Int63())
		}
	}
	for _, cfg := range []Config{
		{Seed: 13, Engine: EngineLegacy},
		{Seed: 13, Engine: EngineStep, Shards: 1},
		{Seed: 13, Engine: EngineStep, Shards: 2},
		{Seed: 13, Engine: EngineStep, Shards: 3},
		{Seed: 13, Engine: EngineStep, Shards: 7},
	} {
		if got := run(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v, %d shards: draws %v, want the (seed, \"node\", ID) streams' %v", cfg.Engine, cfg.Shards, got, want)
		}
	}
}
