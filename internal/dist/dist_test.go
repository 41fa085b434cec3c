package dist

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/graph"
	"repro/internal/sim"
)

// chatter is the same deliberately messy differential workload the sim
// package uses: random local and global traffic, uneven finishing times,
// and an accumulator sensitive to inbox order and content.
func chatter(out []int64) sim.StepFactory {
	return func(env *sim.Env) sim.StepProgram {
		rounds := 6 + env.ID()%5
		acc := int64(env.ID())
		return &sim.Loop{
			Rounds: rounds,
			Send: func(env *sim.Env, r int) {
				for _, nb := range env.Neighbors() {
					if env.Rand().Intn(2) == 0 {
						env.SendLocal(nb.To, int64(env.ID()*1000+r))
					}
				}
				sends := env.Rand().Intn(env.GlobalCap() + 1)
				for s := 0; s < sends; s++ {
					env.SendGlobal(env.Rand().Intn(env.N()), sim.Kind(r), int64(env.ID()), int64(r), int64(s), 7)
				}
			},
			Recv: func(env *sim.Env, in sim.Inbox, r int) {
				for _, lm := range in.Local {
					acc = acc*31 + int64(lm.From)
					if v, ok := lm.Payload.(int64); ok {
						acc = acc*31 + v
					}
				}
				for _, gm := range in.Global {
					acc = acc*31 + int64(gm.Src)*8191 + gm.F1*13 + gm.F2
				}
				out[env.ID()] = acc
			},
		}
	}
}

func runChatter(t *testing.T, g *graph.Graph, cfg sim.Config) ([]int64, sim.Metrics) {
	t.Helper()
	out := make([]int64, g.N())
	m, err := sim.RunStep(g, cfg, chatter(out))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// TestDistEngineMatchesLegacy is the dist differential: for several
// topologies, seeds, and worker counts, EngineDist must produce
// byte-identical per-node results and Metrics to the legacy oracle.
func TestDistEngineMatchesLegacy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(6, 7),
		"path": graph.Path(33),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			wantOut, wantM := runChatter(t, g, sim.Config{Seed: seed, Engine: sim.EngineLegacy})
			for _, workers := range []int{1, 2, 3} {
				out, m := runChatter(t, g, sim.Config{Seed: seed, Engine: sim.EngineDist, DistWorkers: workers})
				if !reflect.DeepEqual(wantOut, out) {
					t.Fatalf("%s seed %d workers %d: results differ from legacy", name, seed, workers)
				}
				if wantM != m {
					t.Fatalf("%s seed %d workers %d: metrics differ:\nlegacy %+v\ndist   %+v", name, seed, workers, wantM, m)
				}
			}
		}
	}
}

// TestDistFrameTimeoutRetry injects dropped request frames and asserts
// the bounded retry path recovers: the run succeeds, stays byte-identical
// to the clean run, and the plan accounts for every drop.
func TestDistFrameTimeoutRetry(t *testing.T) {
	g := graph.Grid(5, 6)
	wantOut, wantM := runChatter(t, g, sim.Config{Seed: 9, Engine: sim.EngineLegacy})

	faults := NewFaults().DropFrames(1, 3, 2).DropFrames(0, 5, 1)
	opts := &Options{Faults: faults, FrameTimeout: 100 * time.Millisecond}
	out, m := runChatter(t, g, sim.Config{
		Seed: 9, Engine: sim.EngineDist, DistWorkers: 2, DistOpts: opts,
	})
	if !reflect.DeepEqual(wantOut, out) {
		t.Fatal("results differ from clean legacy run after injected drops")
	}
	if wantM != m {
		t.Fatalf("metrics differ after injected drops:\nlegacy %+v\ndist   %+v", wantM, m)
	}
	st := faults.Stats()
	if st.Dropped != 3 {
		t.Fatalf("injected %d drops, want 3", st.Dropped)
	}
	if st.Killed != 0 || st.Respawns != 0 {
		t.Fatalf("drop-only plan reports kills/respawns: %+v", st)
	}
}

// TestDistRetryExhaustion drops more frames than the retry budget allows
// and asserts the run aborts with the bounded-attempts error rather than
// hanging.
func TestDistRetryExhaustion(t *testing.T) {
	g := graph.Path(12)
	faults := NewFaults().DropFrames(0, 2, 10)
	opts := &Options{Faults: faults, FrameTimeout: 50 * time.Millisecond}
	out := make([]int64, g.N())
	_, err := sim.RunStep(g, sim.Config{
		Seed: 3, Engine: sim.EngineDist, DistWorkers: 1, DistOpts: opts,
	}, chatter(out))
	if err == nil {
		t.Fatal("want retry-exhaustion error, got success")
	}
	if !strings.Contains(err.Error(), "failed after 4 attempts") {
		t.Fatalf("err = %v, want bounded-attempts failure", err)
	}
}

// TestDistKillRespawnReplay kills a worker mid-run and asserts the
// respawned worker replays the round byte-identically: same results, same
// Metrics as the fault-free run.
func TestDistKillRespawnReplay(t *testing.T) {
	g := graph.Grid(5, 6)
	wantOut, wantM := runChatter(t, g, sim.Config{Seed: 17, Engine: sim.EngineLegacy})

	faults := NewFaults().KillWorker(1, 4)
	out, m := runChatter(t, g, sim.Config{
		Seed: 17, Engine: sim.EngineDist, DistWorkers: 2, DistOpts: WithFaults(faults),
	})
	if !reflect.DeepEqual(wantOut, out) {
		t.Fatal("results differ from clean run after worker kill")
	}
	if wantM != m {
		t.Fatalf("metrics differ after worker kill:\nclean %+v\nkill  %+v", wantM, m)
	}
	st := faults.Stats()
	if st.Killed != 1 {
		t.Fatalf("killed %d workers, want 1", st.Killed)
	}
	if st.Respawns < 1 {
		t.Fatalf("respawns = %d, want >= 1", st.Respawns)
	}
}

// serveConnPair starts the production worker loop over an in-process
// pipe, where coverage and the race detector can see it. The worker's end
// closes when the loop returns.
func serveConnPair(t *testing.T) (client net.Conn, done chan error) {
	t.Helper()
	client, server := net.Pipe()
	done = make(chan error, 1)
	go func() {
		err := ServeConn(server)
		server.Close()
		done <- err
	}()
	t.Cleanup(func() { client.Close() })
	return client, done
}

func sendFrame(t *testing.T, c net.Conn, f wire.Frame) {
	t.Helper()
	if _, err := c.Write(wire.AppendFrame(nil, f)); err != nil {
		t.Fatalf("write %v frame: %v", f.Type, err)
	}
}

func readFrame(t *testing.T, c net.Conn) wire.Frame {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(c)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return f
}

// TestServeConnProtocol walks the worker loop through the full protocol:
// hello/ack, a round with out-of-order traffic, a duplicate-round
// retransmit answered from the reply cache, shutdown.
func TestServeConnProtocol(t *testing.T) {
	client, done := serveConnPair(t)
	hello := wire.Hello{N: 8, Shard: 1, Lo: 4, Hi: 8}
	sendFrame(t, client, wire.Frame{Type: wire.FrameHello, Shard: 1, Payload: wire.AppendHello(nil, hello)})
	ack := readFrame(t, client)
	if ack.Type != wire.FrameHelloAck {
		t.Fatalf("got %v, want hello ack", ack.Type)
	}

	msgs := []sim.GlobalMsg{
		{Src: 0, Dst: 7, Kind: 1, F0: 10},
		{Src: 0, Dst: 4, Kind: 1, F0: 11},
		{Src: 2, Dst: 7, Kind: 2, F0: 12},
		{Src: 3, Dst: 4, Kind: 3, F0: 13},
	}
	req := wire.Frame{Type: wire.FrameRound, Round: 1, Shard: 1, Payload: wire.AppendMsgs(nil, msgs)}
	sendFrame(t, client, req)
	reply := readFrame(t, client)
	if reply.Type != wire.FrameRoundReply || reply.Round != 1 {
		t.Fatalf("got %v round %d, want round reply 1", reply.Type, reply.Round)
	}
	sorted, err := wire.DecodeMsgs(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(msgs) {
		t.Fatalf("shard 1 returned %d messages, was sent %d", len(sorted), len(msgs))
	}
	wantOrder := []sim.GlobalMsg{
		{Src: 0, Dst: 4, Kind: 1, F0: 11},
		{Src: 3, Dst: 4, Kind: 3, F0: 13},
		{Src: 0, Dst: 7, Kind: 1, F0: 10},
		{Src: 2, Dst: 7, Kind: 2, F0: 12},
	}
	if !reflect.DeepEqual(sorted, wantOrder) {
		t.Fatalf("delivery order = %+v, want %+v", sorted, wantOrder)
	}

	// A retransmit of the same round must come back byte-identical from
	// the cache.
	sendFrame(t, client, req)
	again := readFrame(t, client)
	if !reflect.DeepEqual(again, reply) {
		t.Fatalf("cached retransmit reply differs: %+v vs %+v", again, reply)
	}

	sendFrame(t, client, wire.Frame{Type: wire.FrameShutdown, Shard: 1})
	if err := <-done; err != nil {
		t.Fatalf("ServeConn returned %v after shutdown", err)
	}
}

// TestServeConnErrors exercises the worker loop's refusal paths: a round
// before hello, a corrupt batch, an out-of-range destination, a
// protocol-version mismatch, and a hello whose node range is not one.
func TestServeConnErrors(t *testing.T) {
	t.Run("round before hello", func(t *testing.T) {
		client, _ := serveConnPair(t)
		sendFrame(t, client, wire.Frame{Type: wire.FrameRound, Round: 1, Payload: wire.AppendMsgs(nil, nil)})
		f := readFrame(t, client)
		if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "before hello") {
			t.Fatalf("got %v %q", f.Type, f.Payload)
		}
	})
	t.Run("corrupt batch", func(t *testing.T) {
		client, _ := serveConnPair(t)
		hello := wire.Hello{N: 8, Shard: 0, Lo: 0, Hi: 8}
		sendFrame(t, client, wire.Frame{Type: wire.FrameHello, Payload: wire.AppendHello(nil, hello)})
		readFrame(t, client) // ack
		sendFrame(t, client, wire.Frame{Type: wire.FrameRound, Round: 1, Payload: []byte{0xff, 0xff}})
		f := readFrame(t, client)
		if f.Type != wire.FrameError {
			t.Fatalf("corrupt batch answered with %v", f.Type)
		}
	})
	t.Run("destination outside shard", func(t *testing.T) {
		client, _ := serveConnPair(t)
		hello := wire.Hello{N: 8, Shard: 0, Lo: 0, Hi: 4}
		sendFrame(t, client, wire.Frame{Type: wire.FrameHello, Payload: wire.AppendHello(nil, hello)})
		readFrame(t, client) // ack
		bad := wire.AppendMsgs(nil, []sim.GlobalMsg{{Src: 0, Dst: 6}})
		sendFrame(t, client, wire.Frame{Type: wire.FrameRound, Round: 1, Payload: bad})
		f := readFrame(t, client)
		if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "outside shard range") {
			t.Fatalf("got %v %q", f.Type, f.Payload)
		}
	})
	t.Run("proto mismatch", func(t *testing.T) {
		client, done := serveConnPair(t)
		sendFrame(t, client, wire.Frame{Type: wire.FrameHello, Payload: helloAt(wire.Version + 1)})
		f := readFrame(t, client)
		if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "version 5, this build speaks 4") {
			t.Fatalf("version mismatch answered with %v %q", f.Type, f.Payload)
		}
		if err := <-done; err == nil {
			t.Fatal("ServeConn must fail on protocol mismatch")
		}
	})
	t.Run("hello range inverted", func(t *testing.T) {
		client, done := serveConnPair(t)
		hello := wire.Hello{N: 8, Lo: 6, Hi: 2}
		sendFrame(t, client, wire.Frame{Type: wire.FrameHello, Payload: wire.AppendHello(nil, hello)})
		f := readFrame(t, client)
		if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "node range [6,2)") {
			t.Fatalf("inverted hello range answered with %v %q", f.Type, f.Payload)
		}
		if err := <-done; err == nil {
			t.Fatal("ServeConn must fail on a malformed hello")
		}
	})
}

// FuzzServeConn drives the production worker loop with a Hello frame and
// a Round frame around fuzzed payloads. No input may panic it, and a worker
// that acked the Hello answers the round with its batch in delivery order
// or with an error frame.
func FuzzServeConn(f *testing.F) {
	batch := wire.AppendMsgs(nil, []sim.GlobalMsg{{Src: 0, Dst: 7, F0: 10}, {Src: 0, Dst: 4}, {Src: 2, Dst: 7}, {Src: 3, Dst: 4}})
	f.Add(wire.AppendHello(nil, wire.Hello{N: 8, Shard: 1, Lo: 4, Hi: 8}), batch)
	f.Add(wire.AppendHello(nil, wire.Hello{N: 8, Lo: 6, Hi: 2}), batch)
	f.Fuzz(func(t *testing.T, hello, round []byte) {
		client, done := serveConnPair(t)
		client.SetDeadline(time.Now().Add(5 * time.Second))
		send := func(fr wire.Frame) bool {
			_, err := client.Write(wire.AppendFrame(nil, fr))
			return err == nil
		}
		if send(wire.Frame{Type: wire.FrameHello, Payload: hello}) {
			ack, err := wire.ReadFrame(client)
			if err == nil && ack.Type == wire.FrameHelloAck && send(wire.Frame{Type: wire.FrameRound, Round: 1, Payload: round}) {
				reply, err := wire.ReadFrame(client)
				if err != nil {
					t.Fatalf("round after an acked hello: %v", err)
				}
				switch reply.Type {
				case wire.FrameRoundReply:
					if _, err := wire.DecodeMsgs(reply.Payload); err != nil {
						t.Fatalf("round reply does not decode: %v", err)
					}
				case wire.FrameError:
				default:
					t.Fatalf("round answered with a %v frame", reply.Type)
				}
			}
		}
		client.Close()
		<-done
	})
}

// TestResolveOptions pins the default and the accepted DistOpts types.
func TestResolveOptions(t *testing.T) {
	o, err := resolveOptions(nil)
	if err != nil || o.FrameTimeout != defaultFrameTimeout {
		t.Fatalf("nil opts resolved to %+v, %v", o, err)
	}
	f := NewFaults()
	o, err = resolveOptions(WithFaults(f))
	if err != nil || o.Faults != f || o.FrameTimeout != defaultFrameTimeout {
		t.Fatalf("WithFaults opts resolved to %+v, %v", o, err)
	}
	for _, bad := range []any{42, f, Options{}} {
		if _, err := resolveOptions(bad); err == nil {
			t.Fatalf("want error for unsupported DistOpts type %T", bad)
		}
	}
}

// TestDistRespawnBudgetExhausted kills the worker at every round so each
// respawned process is killed again on its next send: past the budget of
// maxRespawns the run must abort with the flapping error instead of
// respawning forever.
func TestDistRespawnBudgetExhausted(t *testing.T) {
	faults := NewFaults()
	for round := 0; round <= maxRespawns; round++ {
		faults.KillWorker(0, round)
	}
	r, err := New(sim.DistRouterConfig{
		N: 8, Workers: 1, ShardSize: 8,
		Opts: &Options{Faults: faults, FrameTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round <= maxRespawns; round++ {
		_, _, err = r.RouteRound(round, [][]sim.GlobalMsg{{{Src: 1, Dst: 2}}})
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("want respawn-budget error, got success")
	}
	if !strings.Contains(err.Error(), "respawn budget (8) exhausted") {
		t.Fatalf("err = %v, want respawn-budget exhaustion", err)
	}
	if st := faults.Stats(); st.Respawns != maxRespawns {
		t.Fatalf("plan reports %d respawns, want exactly the budget of %d", st.Respawns, maxRespawns)
	}
}
