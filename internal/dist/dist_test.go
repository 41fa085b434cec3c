package dist

import (
	"flag"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist/wire"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestMain gives a fuzzing run a minimization budget of 2 s per input unless
// -fuzzminimizetime is set. The go command's default is a minute, and it
// goes to every new interesting input, crashers and coverage finds alike.
// FuzzServeConn's inputs reach kilobytes (the 600-message seed and its
// mutants), an execution costs about a millisecond under coverage
// instrumentation, and the minimizer's subset pass is quadratic in the
// input's length, so one such input kept a worker minimizing for the whole
// minute. The coordinator counts a minimization's executions only when it
// returns: with both workers minimizing, a 25 s run printed 0 execs/s from
// its third second on, though no single execution took over 25 ms.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		// Set fails only if package testing drops the flag; the go
		// command's default then stands.
		_ = flag.Set("test.fuzzminimizetime", "2s")
	}
	os.Exit(m.Run())
}

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

	faults := chaos.NewPlan().DropFrames(1, 3, 2).DropFrames(0, 5, 1)
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
	faults := chaos.NewPlan().DropFrames(0, 2, 10)
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

	faults := chaos.NewPlan().KillWorker(1, 4)
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
		if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "version 6, this build speaks 5") {
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
// a Round frame around fuzzed payloads, then — on the same connection, so
// through the buffers the first round left behind — a second round built
// from the fuzzed bytes and a retransmit of it. No input may panic the
// loop; a worker that acked the Hello answers every round with an error
// frame or with its request stable-sorted by destination, and answers the
// retransmit with the very reply it repeats.
func FuzzServeConn(f *testing.F) {
	batch := wire.AppendMsgs(nil, []sim.GlobalMsg{{Src: 0, Dst: 7, F0: 10}, {Src: 0, Dst: 4}, {Src: 2, Dst: 7}, {Src: 3, Dst: 4}})
	f.Add(wire.AppendHello(nil, wire.Hello{N: 8, Shard: 1, Lo: 4, Hi: 8}), batch)
	f.Add(wire.AppendHello(nil, wire.Hello{N: 8, Lo: 6, Hi: 2}), batch)
	// A large round: 600 messages with wide F-values, over 4 KiB encoded.
	wide := make([]sim.GlobalMsg, 600)
	for i := range wide {
		f := int64(i) << 33
		wide[i] = sim.GlobalMsg{Src: i % 8, Dst: 4 + i%4, Kind: sim.Kind(i % 5), F0: f, F1: -f, F2: f + 1, F3: int64(i) - 300}
	}
	f.Add(wire.AppendHello(nil, wire.Hello{N: 8, Shard: 1, Lo: 4, Hi: 8}), wire.AppendMsgs(nil, wide))
	// A shard of 2^31−1 nodes: the sort's passes follow the keys, not the range.
	f.Add(wire.AppendHello(nil, wire.Hello{N: 1<<31 - 1, Lo: 0, Hi: 1<<31 - 1}),
		wire.AppendMsgs(nil, []sim.GlobalMsg{{Src: 1, Dst: 1<<31 - 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 1 << 20}}))
	f.Fuzz(func(t *testing.T, hello, round []byte) {
		client, done := serveConnPair(t)
		client.SetDeadline(time.Now().Add(5 * time.Second))
		send := func(fr wire.Frame) bool {
			_, err := client.Write(wire.AppendFrame(nil, fr))
			return err == nil
		}
		// check reads the reply to a request for round r: an error frame if
		// the request is not a batch for the shard, else a reply for r that
		// holds msgs stable-sorted by destination.
		check := func(r int, msgs []sim.GlobalMsg, valid bool) wire.Frame {
			reply, err := wire.ReadFrame(client)
			if err != nil {
				t.Fatalf("round %d after an acked hello: %v", r, err)
			}
			if !valid {
				if reply.Type != wire.FrameError {
					t.Fatalf("round %d, not a batch for the shard, answered with a %v frame", r, reply.Type)
				}
				return reply
			}
			if reply.Type != wire.FrameRoundReply || reply.Round != r {
				t.Fatalf("round %d answered with a %v frame for round %d: %q", r, reply.Type, reply.Round, reply.Payload)
			}
			got, err := wire.DecodeMsgs(reply.Payload)
			if err != nil {
				t.Fatalf("round %d reply does not decode: %v", r, err)
			}
			if want := stableByDst(msgs); !slices.Equal(got, want) {
				t.Fatalf("round %d reply\n%v\nis not the stable sort of its request\n%v", r, got, want)
			}
			return reply
		}
		if !send(wire.Frame{Type: wire.FrameHello, Payload: hello}) {
			t.Fatal("sending the hello")
		}
		ack, err := wire.ReadFrame(client)
		if err == nil && ack.Type == wire.FrameHelloAck {
			h, err := wire.DecodeHello(hello)
			if err != nil {
				t.Fatalf("worker acked a hello that does not decode: %v", err)
			}
			msgs, err := wire.DecodeMsgs(round)
			valid := err == nil
			for _, m := range msgs {
				valid = valid && m.Dst >= h.Lo && m.Dst < h.Hi
			}
			if !send(wire.Frame{Type: wire.FrameRound, Round: 1, Payload: round}) {
				t.Fatal("sending round 1")
			}
			check(1, msgs, valid)
			// Round 2: a message per fuzzed byte (at most 512), each for a
			// node of the shard.
			var second []sim.GlobalMsg
			for i, b := range round[:min(len(round), 512)] {
				if h.Hi > h.Lo {
					second = append(second, sim.GlobalMsg{Src: i, Dst: h.Lo + int(b)*(i+1)%(h.Hi-h.Lo), Kind: sim.Kind(b), F0: int64(i)})
				}
			}
			req := wire.Frame{Type: wire.FrameRound, Round: 2, Shard: h.Shard, Payload: wire.AppendMsgs(nil, second)}
			if !send(req) {
				t.Fatal("sending round 2")
			}
			reply := check(2, second, true)
			if !send(req) {
				t.Fatal("retransmitting round 2")
			}
			if again := check(2, second, true); !reflect.DeepEqual(again, reply) {
				t.Fatalf("retransmit of round 2 answered %+v, the round was answered %+v", again, reply)
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
	f := chaos.NewPlan()
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
	faults := chaos.NewPlan()
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
