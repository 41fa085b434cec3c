package sim

import "testing"

// crossShardTraffic is the machine of the staging tests: in every one of its
// rounds each node sends a local message to every neighbour and two more to
// two of them, and fills its global cap with messages spread around the
// node ring, so on a complete graph every staging bucket of every engine —
// every (group, destination shard) pair — is written in every round, some
// destinations several times by one sender. record, if non-nil, sees the
// inbox of every round the node is called in.
func crossShardTraffic(env *Env, rounds int, payload func(r, j int) any, record func(r int, in Inbox)) StepProgram {
	id, n := env.ID(), env.N()
	return StepFunc(func(env *Env) bool {
		r := env.Round()
		if record != nil {
			record(r, env.Incoming())
		}
		if r == rounds {
			return true
		}
		nbs := env.Neighbors()
		for j, nb := range nbs {
			env.SendLocal(nb.To, payload(r, j))
		}
		env.SendLocal(nbs[(id+r)%len(nbs)].To, payload(r, -1))
		env.SendLocal(nbs[(3*id+r)%len(nbs)].To, payload(r, -2))
		c := env.GlobalCap()
		for j := 0; j < c; j++ {
			env.SendGlobal((id+j*n/c+r)%n, Kind(j), int64(id), int64(r), int64(j), 0)
		}
		return false
	})
}

// TestStagingShardCountInvariance: when every node sends local and global
// messages into every shard in the same round, each inbox — per node and
// per round, digested as in TestInboxDigestShardCountInvariance — is the
// legacy engine's, whose staging groups are single nodes, on the step loop
// at 1, 2, 3 and 7 shards (a group per shard) and on EngineDist.
func TestStagingShardCountInvariance(t *testing.T) {
	g := complete(42)
	const rounds = 5
	run := func(cfg Config) ([][]uint64, Metrics) {
		t.Helper()
		digests := make([][]uint64, g.N())
		for v := range digests {
			digests[v] = make([]uint64, rounds+1)
		}
		cfg.Seed, cfg.GlobalSendFactor = 5, 2
		m, err := RunStep(g, cfg, func(env *Env) StepProgram {
			id := env.ID()
			return crossShardTraffic(env, rounds,
				func(r, j int) any { return int64(id*1_000_000 + r*1000 + j) },
				func(r int, in Inbox) { digests[id][r] = inboxDigest(in) })
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return digests, m
	}
	want, wantM := run(Config{Engine: EngineLegacy})
	if wantM.Rounds != rounds || wantM.LocalMsgs != int64(rounds*42*43) {
		t.Fatalf("legacy run: %+v, want %d rounds of %d local messages", wantM, rounds, 42*43)
	}
	for _, cfg := range []Config{
		{Engine: EngineStep, Shards: 1},
		{Engine: EngineStep, Shards: 2},
		{Engine: EngineStep, Shards: 3},
		{Engine: EngineStep, Shards: 7},
		{Engine: EngineDist, DistWorkers: 2},
		{Engine: EngineDist, DistWorkers: 3},
	} {
		got, m := run(cfg)
		for v := range want {
			for r := range want[v] {
				if got[v][r] != want[v][r] {
					t.Errorf("%+v: node %d round %d read inbox %#x, legacy %#x", cfg, v, r, got[v][r], want[v][r])
				}
			}
		}
		if m != wantM {
			t.Errorf("%+v: metrics %+v, legacy %+v", cfg, m, wantM)
		}
	}
}

// TestStagingCrossShardRoundZeroAlloc: once its buckets and inboxes are
// warm, a step-loop round in which every node sends into every shard, over
// three shards, allocates nothing.
func TestStagingCrossShardRoundZeroAlloc(t *testing.T) {
	g := complete(42)
	st, err := NewStepper(g, Config{Engine: EngineStep, Shards: 3, GlobalSendFactor: 2}, func(env *Env) StepProgram {
		p := new(int64)
		return crossShardTraffic(env, 1000, func(int, int) any { return p }, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Advance(5) {
		t.Fatal("run finished during warmup")
	}
	if allocs := testing.AllocsPerRun(20, func() { st.Advance(1) }); allocs != 0 {
		t.Errorf("got %v allocs per cross-shard round, want 0", allocs)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}
