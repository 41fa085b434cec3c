package dist

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/graph"
	"repro/internal/sim"
)

// startListenWorkers stands up n in-process listen-mode workers on TCP
// loopback (the connect-mode topology, minus the machine boundary) and
// returns their dialable addresses in shard order.
func startListenWorkers(t *testing.T, n int, min, max int) ([]string, []*ListenWorker) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*ListenWorker, n)
	for k := 0; k < n; k++ {
		lw, err := startListenWorkerRange("tcp:127.0.0.1:0", k, min, max)
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
// coordinator dialing pre-started TCP workers — with a pipelining window
// above 1 — must be byte-identical to the legacy oracle.
func TestDistConnectMatchesLegacy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(6, 7),
		"path": graph.Path(33),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			wantOut, wantM := runChatter(t, g, sim.Config{Seed: seed, Engine: sim.EngineLegacy})
			for _, window := range []int{1, 3} {
				addrs, _ := startListenWorkers(t, 2, wire.ProtoMin, wire.ProtoMax)
				out, m := runChatter(t, g, sim.Config{
					Seed: seed, Engine: sim.EngineDist, DistWorkers: 2,
					DistOpts: &Options{Connect: addrs, Window: window},
				})
				if !reflect.DeepEqual(wantOut, out) {
					t.Fatalf("%s seed %d window %d: connect-mode results differ from legacy", name, seed, window)
				}
				if wantM != m {
					t.Fatalf("%s seed %d window %d: metrics differ:\nlegacy  %+v\nconnect %+v", name, seed, window, wantM, m)
				}
			}
		}
	}
}

// TestDistConnectKillRedialReplay kills the connection to a pre-started
// worker mid-run. The coordinator must re-dial the same address, replay
// the in-flight window, and finish byte-identical to the clean run —
// the connect-mode analogue of kill/respawn/replay.
func TestDistConnectKillRedialReplay(t *testing.T) {
	g := graph.Grid(5, 6)
	wantOut, wantM := runChatter(t, g, sim.Config{Seed: 17, Engine: sim.EngineLegacy})

	addrs, _ := startListenWorkers(t, 2, wire.ProtoMin, wire.ProtoMax)
	faults := NewFaults().KillWorker(1, 4)
	out, m := runChatter(t, g, sim.Config{
		Seed: 17, Engine: sim.EngineDist, DistWorkers: 2,
		DistOpts: &Options{Connect: addrs, Window: 2, Faults: faults},
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
		N: 8, LogN: 3, Workers: 2, ShardSize: 4,
		Opts: &Options{
			Connect:      nil, // filled below
			Faults:       NewFaults().KillWorker(1, 0),
			FrameTimeout: 200 * time.Millisecond,
			Retries:      2,
		},
	}
	addrs, workers := startListenWorkers(t, 2, wire.ProtoMin, wire.ProtoMax)
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
		N: 8, LogN: 3, Workers: 2, ShardSize: 4,
		Opts: &Options{Connect: []string{"tcp:127.0.0.1:1"}},
	})
	if err == nil || !strings.Contains(err.Error(), "connect addresses") {
		t.Fatalf("err = %v, want address-count mismatch", err)
	}
}

// TestDistHandshakeNegotiation pairs current and version-bumped peers
// both ways: old worker with new coordinator, new worker with old
// coordinator, and a truly incompatible pair.
func TestDistHandshakeNegotiation(t *testing.T) {
	g := graph.Grid(4, 5)
	wantOut, wantM := runChatter(t, g, sim.Config{Seed: 5, Engine: sim.EngineLegacy})

	t.Run("old worker, new coordinator", func(t *testing.T) {
		// A v1-only worker forces the pair down to v1 and clamps the
		// requested window to lockstep — and still matches the oracle.
		addrs, _ := startListenWorkers(t, 2, wire.ProtoV1, wire.ProtoV1)
		r, err := New(sim.DistRouterConfig{
			N: g.N(), LogN: 5, Workers: 2, ShardSize: (g.N() + 1) / 2,
			Opts: &Options{Connect: addrs, Window: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Window() != 1 {
			t.Fatalf("window = %d against a v1 worker, want 1", r.Window())
		}
		r.Close()

		addrs2, _ := startListenWorkers(t, 2, wire.ProtoV1, wire.ProtoV1)
		out, m := runChatter(t, g, sim.Config{
			Seed: 5, Engine: sim.EngineDist, DistWorkers: 2,
			DistOpts: &Options{Connect: addrs2, Window: 4},
		})
		if !reflect.DeepEqual(wantOut, out) || wantM != m {
			t.Fatal("v1-worker pairing diverges from legacy")
		}
	})

	t.Run("new worker, old coordinator", func(t *testing.T) {
		addrs, _ := startListenWorkers(t, 2, wire.ProtoMin, wire.ProtoMax)
		out, m := runChatter(t, g, sim.Config{
			Seed: 5, Engine: sim.EngineDist, DistWorkers: 2,
			DistOpts: &Options{Connect: addrs, ProtoMin: wire.ProtoV1, ProtoMax: wire.ProtoV1},
		})
		if !reflect.DeepEqual(wantOut, out) || wantM != m {
			t.Fatal("v1-coordinator pairing diverges from legacy")
		}
	})

	t.Run("incompatible pair", func(t *testing.T) {
		// A worker from the future (speaks only v3+) against today's
		// coordinator must fail with the range error, not garbage.
		addrs, _ := startListenWorkers(t, 1, wire.ProtoMax+1, wire.ProtoMax+1)
		_, err := New(sim.DistRouterConfig{
			N: 8, LogN: 3, Workers: 1, ShardSize: 8,
			Opts: &Options{Connect: addrs},
		})
		if err == nil || !strings.Contains(err.Error(), "no common protocol version") {
			t.Fatalf("err = %v, want version-range failure", err)
		}
	})

	t.Run("incompatible pair, coordinator newer", func(t *testing.T) {
		addrs, _ := startListenWorkers(t, 1, wire.ProtoMin, wire.ProtoMax)
		_, err := New(sim.DistRouterConfig{
			N: 8, LogN: 3, Workers: 1, ShardSize: 8,
			Opts: &Options{Connect: addrs, ProtoMin: wire.ProtoMax + 1, ProtoMax: wire.ProtoMax + 1},
		})
		if err == nil || !strings.Contains(err.Error(), "no common protocol version") {
			t.Fatalf("err = %v, want version-range failure", err)
		}
	})
}

// TestRouterWindowDeferral drives the pipelining window at the router
// level: empty rounds are begun immediately and their reply collection
// deferred; a non-empty round (or Flush) drains the backlog; a dropped
// frame on a deferred round is retried at drain time.
func TestRouterWindowDeferral(t *testing.T) {
	faults := NewFaults().DropFrames(0, 1, 1)
	r, err := New(sim.DistRouterConfig{
		N: 8, LogN: 3, Workers: 2, ShardSize: 4,
		Opts: &Options{Window: 3, Faults: faults, FrameTimeout: 300 * time.Millisecond, Retries: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Window() != 3 {
		t.Fatalf("window = %d, want 3", r.Window())
	}

	empty := [][]sim.GlobalMsg{nil, nil}
	for round := 0; round <= 2; round++ {
		streams, st, err := r.RouteRound(round, empty)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.ViolDst != -1 || st.GlobalMsgs != 0 {
			t.Fatalf("round %d: deferred stats %+v, want empty", round, st)
		}
		for k, s := range streams {
			if len(s) != 0 {
				t.Fatalf("round %d shard %d: deferred round returned %d msgs", round, k, len(s))
			}
		}
	}
	// Rounds 0..2 shipped; with window 3 at most 2 awaited replies remain
	// outstanding, so at least one drain already happened (and consumed
	// the injected drop via the retry path).
	if n := len(r.deferred); n > 2 {
		t.Fatalf("deferred backlog %d exceeds window-1", n)
	}

	// A non-empty round forces the backlog to drain in order first.
	batch := [][]sim.GlobalMsg{
		{{Src: 5, Dst: 1, Kind: 1, F0: 10}, {Src: 6, Dst: 0, Kind: 1, F0: 11}},
		{{Src: 0, Dst: 7, Kind: 1, F0: 12}},
	}
	streams, st, err := r.RouteRound(3, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.deferred) != 0 {
		t.Fatalf("deferred backlog %d after non-empty round, want 0", len(r.deferred))
	}
	if st.GlobalMsgs != 3 || st.MaxRecv != 1 {
		t.Fatalf("stats %+v, want 3 msgs, max recv 1", st)
	}
	// Worker-sorted delivery: shard 0 receives dst 0 then 1.
	want0 := []sim.GlobalMsg{{Src: 6, Dst: 0, Kind: 1, F0: 11}, {Src: 5, Dst: 1, Kind: 1, F0: 10}}
	if !reflect.DeepEqual(streams[0], want0) {
		t.Fatalf("shard 0 stream %+v, want %+v", streams[0], want0)
	}
	if len(streams[1]) != 1 || streams[1][0].Dst != 7 {
		t.Fatalf("shard 1 stream %+v", streams[1])
	}

	// Tail empty rounds + Flush: the backlog drains and validates.
	for round := 4; round <= 6; round++ {
		if _, _, err := r.RouteRound(round, empty); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(r.deferred) != 0 {
		t.Fatal("flush left a deferred backlog")
	}
	if got := faults.Stats().Dropped; got != 1 {
		t.Fatalf("consumed %d injected drops, want 1", got)
	}
	if r.Respawns() != 0 {
		t.Fatalf("respawns = %d, want 0 (drops must be retried, not respawned)", r.Respawns())
	}
}

// TestDistPipelinedKillReplay kills a worker while a deferred window is
// outstanding: the respawn must replay the whole in-flight window and
// stay byte-identical end to end.
func TestDistPipelinedKillReplay(t *testing.T) {
	g := graph.Grid(5, 6)
	wantOut, wantM := runChatter(t, g, sim.Config{Seed: 23, Engine: sim.EngineLegacy})
	faults := NewFaults().KillWorker(0, 6)
	out, m := runChatter(t, g, sim.Config{
		Seed: 23, Engine: sim.EngineDist, DistWorkers: 2,
		DistOpts: &Options{Window: 4, Faults: faults},
	})
	if !reflect.DeepEqual(wantOut, out) {
		t.Fatal("pipelined kill+replay diverges from legacy")
	}
	if wantM != m {
		t.Fatalf("pipelined kill+replay metrics differ:\nlegacy %+v\ndist   %+v", wantM, m)
	}
	if st := faults.Stats(); st.Killed != 1 || st.Respawns < 1 {
		t.Fatalf("fault stats %+v, want 1 kill and >=1 respawn", st)
	}
}

// TestPingDuringFaultedRoundRace is the regression test for the
// Router.workers data race: Ping and LastHeartbeat hammer the router from
// another goroutine while a faulted round respawns workers. Run under
// -race (the dist CI step does) this fails on the old unsynchronized
// slot; the per-slot lock + atomic worker pointer make it clean.
func TestPingDuringFaultedRoundRace(t *testing.T) {
	faults := NewFaults().KillWorker(1, 1).KillWorker(0, 3)
	r, err := New(sim.DistRouterConfig{
		N: 8, LogN: 3, Workers: 2, ShardSize: 4,
		Opts: &Options{Faults: faults, FrameTimeout: time.Second, HeartbeatEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var pinged atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 2; k++ {
				if r.Ping(k) == nil {
					pinged.Add(1)
				}
				r.LastHeartbeat(k)
			}
		}
	}()

	batch := func(round int) [][]sim.GlobalMsg {
		return [][]sim.GlobalMsg{
			{{Src: 1, Dst: 2, Kind: 1, F0: int64(round)}},
			{{Src: 2, Dst: 5, Kind: 1, F0: int64(round)}},
		}
	}
	for round := 0; round < 6; round++ {
		if _, _, err := r.RouteRound(round, batch(round)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if r.Respawns() < 2 {
		t.Fatalf("respawns = %d, want >= 2 (both kill faults must fire)", r.Respawns())
	}
	if pinged.Load() == 0 {
		t.Fatal("pinger never succeeded — the concurrency the test exists for never happened")
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

// pipeRouter builds a Router whose single slot speaks to an in-test
// scripted peer over net.Pipe — the harness for Ping's frame handling.
func pipeRouter(t *testing.T, pending []int) (*Router, net.Conn) {
	t.Helper()
	opts, err := resolveOptions(&Options{FrameTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	local, remote := net.Pipe()
	t.Cleanup(func() { local.Close(); remote.Close() })
	w := &worker{shard: 0, proto: wire.ProtoV2, conn: local,
		cr: &countReader{c: local}, gotReplies: make(map[int]wire.Frame)}
	sl := &slot{}
	w2 := w
	sl.w.Store(w2)
	for _, round := range pending {
		sl.pending = append(sl.pending, pendingReq{round: round})
	}
	r := &Router{opts: opts, window: 4, slots: []*slot{sl}}
	return r, remote
}

// TestPingRecordsLateReply is the regression test for Ping swallowing
// frames: a round reply read during a ping must be parked for its
// collect (not discarded), and a protocol-error frame must fail the ping
// instead of being skipped.
func TestPingRecordsLateReply(t *testing.T) {
	t.Run("late reply parked", func(t *testing.T) {
		r, remote := pipeRouter(t, []int{5})
		go func() {
			wire.ReadFrame(remote) // the ping
			remote.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRoundReply, Round: 5,
				Payload: wire.AppendReply(nil, nil, wire.RoundStats{ViolDst: -1})}))
			remote.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameHeartbeat}))
		}()
		if err := r.Ping(0); err != nil {
			t.Fatalf("ping: %v", err)
		}
		w := r.slots[0].w.Load()
		if _, ok := w.gotReplies[5]; !ok {
			t.Fatal("in-flight round reply read during ping was discarded")
		}
	})
	t.Run("stale reply skipped", func(t *testing.T) {
		r, remote := pipeRouter(t, nil) // nothing in flight: round 5 is stale
		go func() {
			wire.ReadFrame(remote)
			remote.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRoundReply, Round: 5,
				Payload: wire.AppendReply(nil, nil, wire.RoundStats{ViolDst: -1})}))
			remote.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameHeartbeat}))
		}()
		if err := r.Ping(0); err != nil {
			t.Fatalf("ping: %v", err)
		}
		if len(r.slots[0].w.Load().gotReplies) != 0 {
			t.Fatal("stale reply was recorded")
		}
	})
	t.Run("protocol error rejected", func(t *testing.T) {
		r, remote := pipeRouter(t, nil)
		go func() {
			wire.ReadFrame(remote)
			remote.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameError, Payload: []byte("boom")}))
		}()
		err := r.Ping(0)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("ping err = %v, want the worker's protocol error", err)
		}
	})
}

// TestResolveOptionsWindowAndRange pins the new option defaults.
func TestResolveOptionsWindowAndRange(t *testing.T) {
	o, err := resolveOptions(nil)
	if err != nil || o.Window != 1 || o.ProtoMin != wire.ProtoMin || o.ProtoMax != wire.ProtoMax {
		t.Fatalf("defaults: %+v, %v", o, err)
	}
	o, err = resolveOptions(&Options{Window: MaxWindow + 10})
	if err != nil || o.Window != MaxWindow {
		t.Fatalf("window clamp: %+v, %v", o, err)
	}
	if _, err := resolveOptions(&Options{ProtoMin: 3, ProtoMax: 2}); err == nil {
		t.Fatal("inverted protocol range accepted")
	}
}

// TestRouterRoundGaps drives the router the way the step engine's
// fast-forward does: round numbers ascend but skip (no RouteRound is issued
// for a round in which every node slept). Workers are pure per-round
// functions, so nothing may depend on the numbers being consecutive: a
// fault keyed on a round that is never routed neither fires nor wedges the
// window, empty rounds on either side of a gap are still deferred and
// drained by Flush, and a kill in the middle of a gapped window replays it
// byte-identically.
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
	route := func(faults *Faults) []result {
		t.Helper()
		r, err := New(sim.DistRouterConfig{
			N: 8, LogN: 3, Workers: 2, ShardSize: 4,
			Opts: &Options{Window: 3, Faults: faults, FrameTimeout: 300 * time.Millisecond, Retries: 4},
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
		if len(r.deferred) == 0 {
			t.Fatal("the empty tail rounds were not deferred; Flush has nothing to prove")
		}
		if err := r.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if len(r.deferred) != 0 {
			t.Fatal("flush left a deferred backlog")
		}
		return results
	}

	clean := route(NewFaults())
	// Rounds 20, 96 and 4000 are never routed; round 5000 is, with the
	// deferred empty rounds 300 and 301 still in flight before it.
	faults := NewFaults().DropFrames(1, 20, 5).KillWorker(1, 96).DelayFrame(0, 4000, time.Hour).KillWorker(0, 5000)
	faulty := route(faults)
	if !reflect.DeepEqual(clean, faulty) {
		t.Fatalf("gapped sequence diverged under faults:\nclean  %+v\nfaulty %+v", clean, faulty)
	}
	if st := faults.Stats(); st.Killed != 1 || st.Dropped != 0 || st.Delayed != 0 || st.Respawns < 1 {
		t.Fatalf("fault stats %+v, want exactly the round-5000 kill (and its respawn) to have fired", st)
	}
}
