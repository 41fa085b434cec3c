package dist

import (
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist/wire"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/sim"
)

// startListenWorkers stands up n in-process listen-mode workers on TCP
// loopback (the connect-mode topology, minus the machine boundary) and
// returns their dialable addresses in shard order.
func startListenWorkers(t *testing.T, n int) ([]string, []*ListenWorker) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*ListenWorker, n)
	for k := 0; k < n; k++ {
		lw, err := StartListenWorker("tcp:127.0.0.1:0", k)
		if err != nil {
			t.Fatalf("listen worker %d: %v", k, err)
		}
		t.Cleanup(func() { lw.Close() })
		go lw.Serve()
		addrs[k] = lw.Addr()
		workers[k] = lw
	}
	return addrs, workers
}

// TestDistConnectMatchesLegacy is the connect-mode differential: a
// coordinator dialing pre-started TCP workers must be byte-identical to the
// legacy oracle.
func TestDistConnectMatchesLegacy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(6, 7),
		"path": graph.Path(33),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			wantOut, wantM := runChatter(t, g, sim.Config{Seed: seed, Engine: sim.EngineLegacy})
			addrs, _ := startListenWorkers(t, 2)
			out, m := runChatter(t, g, sim.Config{
				Seed: seed, Engine: sim.EngineDist, DistWorkers: 2,
				DistOpts: &Options{Connect: addrs},
			})
			if !reflect.DeepEqual(wantOut, out) {
				t.Fatalf("%s seed %d: connect-mode results differ from legacy", name, seed)
			}
			if wantM != m {
				t.Fatalf("%s seed %d: metrics differ:\nlegacy  %+v\nconnect %+v", name, seed, wantM, m)
			}
		}
	}
}

// TestDistConnectKillRedialReplay kills the connection to a pre-started
// worker mid-run. The coordinator must re-dial the same address, replay
// the pending request, and finish byte-identical to the clean run —
// the connect-mode analogue of kill/respawn/replay.
func TestDistConnectKillRedialReplay(t *testing.T) {
	g := graph.Grid(5, 6)
	wantOut, wantM := runChatter(t, g, sim.Config{Seed: 17, Engine: sim.EngineLegacy})

	addrs, _ := startListenWorkers(t, 2)
	faults := chaos.NewPlan().KillWorker(1, 4)
	out, m := runChatter(t, g, sim.Config{
		Seed: 17, Engine: sim.EngineDist, DistWorkers: 2,
		DistOpts: &Options{Connect: addrs, Faults: faults},
	})
	if !reflect.DeepEqual(wantOut, out) {
		t.Fatal("results differ from legacy after connect-mode kill + re-dial")
	}
	if wantM != m {
		t.Fatalf("metrics differ after connect-mode kill:\nlegacy %+v\ndist   %+v", wantM, m)
	}
	st := faults.Stats()
	if st.Killed != 1 || st.Respawns < 1 {
		t.Fatalf("fault stats after kill: %+v (want 1 kill, >=1 re-dial)", st)
	}
}

// TestDistConnectWorkerGoneAbort removes a remote worker entirely (its
// listener is gone when the coordinator tries to re-dial) and asserts
// the run aborts with a clear "worker gone" error — never a hang.
func TestDistConnectWorkerGoneAbort(t *testing.T) {
	cfg := sim.DistRouterConfig{
		N: 8, Workers: 2, ShardSize: 4,
		Opts: &Options{
			Connect:      nil, // filled below
			Faults:       chaos.NewPlan().KillWorker(1, 0),
			FrameTimeout: 200 * time.Millisecond,
		},
	}
	addrs, workers := startListenWorkers(t, 2)
	cfg.Opts.(*Options).Connect = addrs
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Take worker 1's listener away so the re-dial after the kill fault
	// has nowhere to go.
	workers[1].Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := r.RouteRound(0, [][]sim.GlobalMsg{nil, nil})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want worker-gone abort, got success")
		}
		if !strings.Contains(err.Error(), "gone") {
			t.Fatalf("err = %v, want a worker-gone re-dial failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker-gone round hung instead of aborting")
	}
}

// TestDistConnectAddressCountMismatch: connect mode demands one address
// per shard.
func TestDistConnectAddressCountMismatch(t *testing.T) {
	_, err := New(sim.DistRouterConfig{
		N: 8, Workers: 2, ShardSize: 4,
		Opts: &Options{Connect: []string{"tcp:127.0.0.1:1"}},
	})
	if err == nil || !strings.Contains(err.Error(), "connect addresses") {
		t.Fatalf("err = %v, want address-count mismatch", err)
	}
}

// scriptedWorker listens on TCP loopback and hands each coordinator that
// dials to serve, one at a time — a stand-in for a worker this tree cannot
// build: another build's protocol version, or a peer that breaks the handshake.
func scriptedWorker(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serve(conn)
			conn.Close()
		}
	}()
	return "tcp:" + ln.Addr().String()
}

// section is a payload of one section holding vals: the layout of every
// Join, HelloAck and Hello, whichever build wrote it.
func section(vals ...int64) []byte {
	sec := persist.PackInt64s(vals)
	return append(binary.AppendUvarint(nil, uint64(len(sec))), sec...)
}

// helloAt is this build's Hello for a one-shard run on 8 nodes, sent at
// version v.
func helloAt(v int64) []byte { return section(v, 8, 0, 0, 8) }

// joinAs announces a worker with the given Join payload, then runs the
// production loop.
func joinAs(join []byte) func(net.Conn) {
	return func(conn net.Conn) {
		conn.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameJoin, Payload: join}))
		ServeConn(conn)
	}
}

// dialAs is the coordinator half of the handshake as another build would
// run it against this tree's worker: read the Join, send hello, and return
// the worker's answer.
func dialAs(t *testing.T, addr string, hello []byte) wire.Frame {
	t.Helper()
	conn, err := dialAddr(addr, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if shard, err := wire.DecodeHandshake(readFrame(t, conn).Payload); err != nil || shard != 0 {
		t.Fatalf("join handshake = %d, %v", shard, err)
	}
	sendFrame(t, conn, wire.Frame{Type: wire.FrameHello, Payload: hello})
	return readFrame(t, conn)
}

// TestDistHandshakeNegotiation pairs this build (it speaks version 4 only)
// with peers at other versions, both ways: each side refuses the other with
// an error naming both versions instead of running — version 3's Join and
// 8-int Hello, the builds just before it, included.
func TestDistHandshakeNegotiation(t *testing.T) {
	refused := func(t *testing.T, join []byte, want string) {
		t.Helper()
		_, err := New(sim.DistRouterConfig{
			N: 8, Workers: 1, ShardSize: 8,
			Opts: &Options{Connect: []string{scriptedWorker(t, joinAs(join))}},
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
	answered := func(t *testing.T, hello []byte, want string) {
		t.Helper()
		addrs, _ := startListenWorkers(t, 1)
		answer := dialAs(t, addrs[0], hello)
		if answer.Type != wire.FrameError || !strings.Contains(string(answer.Payload), want) {
			t.Fatalf("hello answered with a %v frame %q, want an error containing %q", answer.Type, answer.Payload, want)
		}
	}

	t.Run("old worker, new coordinator", func(t *testing.T) {
		refused(t, section(3, 0), "join handshake: wire: handshake at protocol version 3, this build speaks 4")
	})
	t.Run("new worker, old coordinator", func(t *testing.T) {
		answered(t, section(3, 8, 3, 0, 0, 8, 0, 0), "hello at protocol version 3, this build speaks 4")
	})
	t.Run("incompatible pair", func(t *testing.T) {
		refused(t, section(wire.Version+1, 0), "handshake at protocol version 5, this build speaks 4")
	})
	t.Run("incompatible pair, coordinator newer", func(t *testing.T) {
		answered(t, helloAt(wire.Version+1), "hello at protocol version 5, this build speaks 4")
	})
}

// TestHandshakeErrors: a peer that breaks the handshake is refused with an
// error that says what it sent.
func TestHandshakeErrors(t *testing.T) {
	join := func(shard int) wire.Frame {
		return wire.Frame{Type: wire.FrameJoin, Payload: wire.AppendHandshake(nil, shard)}
	}
	cases := []struct {
		name          string
		first, answer wire.Frame // the peer's first frame, and its answer to the Hello
		want          string
	}{
		{"first frame of the wrong type", wire.Frame{Type: wire.FrameRound}, wire.Frame{},
			"want a join announcement, got a round frame"},
		{"pinned to another shard", join(3), wire.Frame{}, "pinned to shard 3, dialed as shard 0"},
		{"hello answered with the wrong type", join(0), wire.Frame{Type: wire.FrameRoundReply},
			"unexpected round-reply frame during handshake"},
		{"hello acked as another shard", join(wire.AnyShard),
			wire.Frame{Type: wire.FrameHelloAck, Payload: wire.AppendHandshake(nil, 5)},
			"acked the hello as shard 5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			addr := scriptedWorker(t, func(conn net.Conn) {
				conn.Write(wire.AppendFrame(nil, c.first))
				if _, err := wire.ReadFrame(conn); err == nil {
					conn.Write(wire.AppendFrame(nil, c.answer))
				}
			})
			_, err := New(sim.DistRouterConfig{N: 8, Workers: 1, ShardSize: 8, Opts: &Options{Connect: []string{addr}}})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestRouterDropRetriedNotRespawned drives the router directly: a round of
// empty batches makes a real trip, a dropped request is resent after the
// frame timeout on the same connection (not answered with a respawn), a
// non-empty round comes back in worker-sorted delivery order, and a closed
// router routes nothing.
func TestRouterDropRetriedNotRespawned(t *testing.T) {
	faults := chaos.NewPlan().DropFrames(0, 1, 1)
	r, err := New(sim.DistRouterConfig{
		N: 8, Workers: 2, ShardSize: 4,
		Opts: &Options{Faults: faults, FrameTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for round := 0; round <= 2; round++ {
		streams, st, err := r.RouteRound(round, [][]sim.GlobalMsg{nil, nil})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st != (sim.DistRoundStats{}) || len(streams[0])+len(streams[1]) != 0 {
			t.Fatalf("round %d: empty round returned %+v / %+v", round, streams, st)
		}
	}
	batch := [][]sim.GlobalMsg{
		{{Src: 5, Dst: 1, Kind: 1, F0: 10}, {Src: 6, Dst: 0, Kind: 1, F0: 11}},
		{{Src: 0, Dst: 7, Kind: 1, F0: 12}},
	}
	streams, st, err := r.RouteRound(3, batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.GlobalMsgs != 3 {
		t.Fatalf("stats %+v, want 3 msgs", st)
	}
	// Worker-sorted delivery: shard 0 receives dst 0 then 1.
	want0 := []sim.GlobalMsg{{Src: 6, Dst: 0, Kind: 1, F0: 11}, {Src: 5, Dst: 1, Kind: 1, F0: 10}}
	if !reflect.DeepEqual(streams[0], want0) {
		t.Fatalf("shard 0 stream %+v, want %+v", streams[0], want0)
	}
	if len(streams[1]) != 1 || streams[1][0].Dst != 7 {
		t.Fatalf("shard 1 stream %+v", streams[1])
	}
	if got := faults.Stats().Dropped; got != 1 {
		t.Fatalf("consumed %d injected drops, want 1", got)
	}
	if got := faults.Stats().Respawns; got != 0 {
		t.Fatalf("respawns = %d, want 0 (drops must be retried, not respawned)", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RouteRound(4, [][]sim.GlobalMsg{nil, nil}); err == nil {
		t.Fatal("RouteRound after Close must fail")
	}
}

// TestSpawnedChildrenLeaveNothingBehind: a child the coordinator started is
// reaped, and its socket directory removed, when it is abandoned before
// anyone dialed it, when a respawn replaces it, and at Close.
func TestSpawnedChildrenLeaveNothingBehind(t *testing.T) {
	gone := func(when string, w *worker) {
		t.Helper()
		select {
		case <-w.exited:
		default:
			t.Fatalf("%s: child of shard %d (pid %d) not reaped", when, w.shard, w.cmd.Process.Pid)
		}
		if _, err := os.Stat(w.dir); !os.IsNotExist(err) {
			t.Fatalf("%s: socket directory %s of shard %d left behind (%v)", when, w.dir, w.shard, err)
		}
	}

	abandoned := &worker{shard: 0}
	if err := abandoned.spawn(time.Now().Add(handshakeTimeout)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(abandoned.dir, "worker.sock")); err != nil {
		t.Fatalf("announced child has no socket: %v", err)
	}
	abandoned.stop()
	gone("abandoned before the dial", abandoned)

	faults := chaos.NewPlan().KillWorker(1, 1)
	r, err := New(sim.DistRouterConfig{
		N: 8, Workers: 2, ShardSize: 4,
		Opts: WithFaults(faults),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	first := []*worker{r.slots[0].w.Load(), r.slots[1].w.Load()}
	if _, _, err := r.RouteRound(1, [][]sim.GlobalMsg{nil, {{Src: 1, Dst: 5}}}); err != nil {
		t.Fatal(err)
	}
	replacement := r.slots[1].w.Load()
	if replacement == first[1] || faults.Stats().Respawns != 1 {
		t.Fatalf("kill fault did not respawn shard 1 (respawns %d)", faults.Stats().Respawns)
	}
	gone("after the respawn", first[1])
	if _, err := os.Stat(replacement.dir); err != nil {
		t.Fatalf("replacement's socket directory: %v", err)
	}

	r.Close()
	gone("after Close", first[0])
	gone("after Close", replacement)
}

// TestServeFirst is the life of a spawned child, in-process: it serves the
// one coordinator that dials and then is gone, and gives up on its own when
// nobody dials in time.
func TestServeFirst(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "w.sock")
	lw, err := StartListenWorker("unix:"+sock, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.serveFirst(50 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "no coordinator dialed") {
		t.Fatalf("undialed worker returned %v", err)
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Fatalf("undialed worker left its socket behind (%v)", err)
	}

	if lw, err = StartListenWorker("unix:"+sock, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lw.serveFirst(5 * time.Second) }()
	conn, err := dialAddr(lw.Addr(), time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if join := readFrame(t, conn); join.Type != wire.FrameJoin {
		t.Fatalf("first frame is a %v", join.Type)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatalf("serveFirst after its one connection: %v", err)
	}
	if conn, err := dialAddr(lw.Addr(), time.Now().Add(5*time.Second)); err == nil {
		conn.Close()
		t.Fatal("a second coordinator could still dial")
	}
}

// TestBackoffDelayClamp is the regression test for the retry-backoff
// overflow: large attempt counts must never shift time.Duration negative
// (which time.Sleep treats as zero, turning backoff into a hot loop).
func TestBackoffDelayClamp(t *testing.T) {
	base := 2 * time.Millisecond
	if d := backoffDelay(base, 1); d != base {
		t.Fatalf("first resend backoff = %v, want %v", d, base)
	}
	if d := backoffDelay(base, 3); d != 4*base {
		t.Fatalf("third resend backoff = %v, want %v", d, 4*base)
	}
	for _, n := range []int{63, 64, 65, 100, 1 << 20} {
		d := backoffDelay(base, n)
		if d <= 0 || d > maxBackoff {
			t.Fatalf("backoffDelay(%v, %d) = %v, outside (0, %v]", base, n, d, maxBackoff)
		}
	}
	if d := backoffDelay(time.Hour, 2); d != maxBackoff {
		t.Fatalf("huge base not capped: %v", d)
	}
}

// TestRouterRoundGaps drives the router the way the step engine's
// fast-forward does: round numbers ascend but skip (no RouteRound is issued
// for a round in which every node slept). Workers are pure per-round
// functions, so nothing may depend on the numbers being consecutive: a
// fault keyed on a round that is never routed neither fires nor wedges the
// router, empty rounds on either side of a gap still make their trip, and a
// kill after a gap is replayed byte-identically.
func TestRouterRoundGaps(t *testing.T) {
	batch := func(f0 int64) [][]sim.GlobalMsg {
		return [][]sim.GlobalMsg{
			{{Src: 5, Dst: 1, Kind: 1, F0: f0}, {Src: 6, Dst: 0, Kind: 1, F0: f0 + 1}},
			{{Src: 0, Dst: 7, Kind: 1, F0: f0 + 2}, {Src: 3, Dst: 7, Kind: 2, F0: f0 + 3}},
		}
	}
	empty := [][]sim.GlobalMsg{nil, nil}
	seq := []struct {
		round int
		out   [][]sim.GlobalMsg
	}{
		{1, batch(10)}, {2, empty}, {40, empty}, {41, batch(20)}, {97, empty},
		{300, empty}, {301, empty}, {5000, batch(30)}, {5001, empty}, {9000, empty},
	}
	type result struct {
		Streams [][]sim.GlobalMsg
		Stats   sim.DistRoundStats
	}
	route := func(faults *chaos.Plan) []result {
		t.Helper()
		r, err := New(sim.DistRouterConfig{
			N: 8, Workers: 2, ShardSize: 4,
			Opts: &Options{Faults: faults, FrameTimeout: 300 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var results []result
		for _, s := range seq {
			streams, st, err := r.RouteRound(s.round, s.out)
			if err != nil {
				t.Fatalf("round %d: %v", s.round, err)
			}
			res := result{Stats: st}
			for _, stream := range streams {
				res.Streams = append(res.Streams, append([]sim.GlobalMsg(nil), stream...))
			}
			results = append(results, res)
		}
		return results
	}

	clean := route(chaos.NewPlan())
	// Rounds 20, 96 and 4000 are never routed; round 5000 is.
	faults := chaos.NewPlan().DropFrames(1, 20, 5).KillWorker(1, 96).DelayFrame(0, 4000, time.Hour).KillWorker(0, 5000)
	faulty := route(faults)
	if !reflect.DeepEqual(clean, faulty) {
		t.Fatalf("gapped sequence diverged under faults:\nclean  %+v\nfaulty %+v", clean, faulty)
	}
	if st := faults.Stats(); st.Killed != 1 || st.Dropped != 0 || st.Delayed != 0 || st.Respawns < 1 {
		t.Fatalf("fault stats %+v, want exactly the round-5000 kill (and its respawn) to have fired", st)
	}
}
