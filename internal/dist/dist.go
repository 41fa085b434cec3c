// Package dist is the multi-process distributed round engine behind
// sim.EngineDist: a coordinator-side Router that dials one worker per shard,
// speaks the internal/dist/wire frame protocol to it, and routes each
// round's staged global-message batches through the workers with per-frame
// timeouts, bounded retry/backoff, and kill/respawn/replay — all of it
// drivable from tests through the FaultHook seam (internal/chaos's Plan
// implements it, without this package importing chaos). The run's context
// (sim.DistRouterConfig.Ctx) bounds every wait inside a round trip, so a
// cancelled or timed-out run is not held up by the retry loop.
//
// There is one way to reach a worker: the coordinator dials a listening
// worker's scheme-prefixed address, reads its Join (the protocol version it
// speaks and the shard it is pinned to, if any), and configures it with a
// Hello. Options.Connect names pre-started workers — typically
// cmd/hybridworker -listen on other machines. Without it the coordinator
// starts its own: one child per shard, a re-exec of the current binary
// hijacked before main by an env-var check (see worker.go), listening on a
// private unix socket and serving that one connection — so any program that
// can be a coordinator can be its own worker fleet. A lost connection is
// healed the same way in both cases (a child is killed and restarted first):
// dial again and replay the pending request.
//
// Importing this package registers the Router as the sim package's
// DistRouter factory, which is what arms WithEngine(EngineDist) on the
// facade.
package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/sim"
)

func init() {
	sim.RegisterDistRouter(func(cfg sim.DistRouterConfig) (sim.DistRouter, error) {
		return New(cfg)
	})
}

// FaultHook is the seam tests inject frame faults through. FrameFault is
// consulted at every request-send attempt to shard for round: drop skips
// the write (the reply wait times out and the bounded retry resends), kill
// stops the worker first (the connection error triggers respawn + replay),
// and delay sleeps before the send. Respawned reports each worker the
// router replaced. Both are called from parallel shard goroutines.
type FaultHook interface {
	FrameFault(shard, round int) (drop, kill bool, delay time.Duration)
	Respawned()
}

// Options names pre-started workers and carries the test-facing knobs.
// The zero value of every field means its default.
type Options struct {
	// Faults is the test-driven fault-injection hook (nil: none).
	Faults FaultHook
	// FrameTimeout bounds one reply wait per attempt (default 3s); the
	// run's context deadline, when earlier, ends the wait instead.
	FrameTimeout time.Duration
	// Connect names pre-started workers to dial instead of starting local
	// children (scheme-prefixed, e.g. "tcp:10.0.0.7:9000"), one per shard in
	// shard order. The length must equal the worker count. On connection
	// loss the router re-dials the same address and replays the pending
	// request; if the remote worker is gone the run aborts with a clear
	// error instead of hanging.
	Connect []string
}

// WithFaults returns an Options carrying the given fault hook — what tests
// hand to hybrid.WithDistOptions.
func WithFaults(f FaultHook) *Options { return &Options{Faults: f} }

const (
	defaultFrameTimeout = 3 * time.Second
	handshakeTimeout    = 10 * time.Second

	// retries is the number of send attempts per round per worker before
	// the run aborts.
	retries = 4
	// backoff is the base retry backoff, doubled per attempt up to
	// maxBackoff.
	backoff = 2 * time.Millisecond
	// maxRespawns is the respawn/re-dial budget across the whole run, all
	// shards combined: past it the run aborts with a clear "worker
	// flapping" error instead of respawning forever. It is a soft bound
	// under concurrent failures — parallel shards may overshoot by one or
	// two — but a flapping worker burns through it within a round or two
	// either way.
	maxRespawns = 8

	// maxBackoff caps the exponential retry backoff so no attempt count
	// can shift the base into overflow (time.Duration is an int64 of
	// nanoseconds: left-shifting a millisecond-scale base ~44 bits wraps
	// negative, and time.Sleep treats negative as zero — a hot retry loop
	// exactly when the system is already struggling).
	maxBackoff = 2 * time.Second
)

// backoffDelay is the bounded exponential backoff before resend attempt
// n (n >= 1): base << (n-1), clamped to maxBackoff, with the shift itself
// clamped so it can never overflow time.Duration.
func backoffDelay(base time.Duration, n int) time.Duration {
	if n < 1 {
		return 0
	}
	shift := n - 1
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// resolveOptions fills defaults into a Config.DistOpts value.
func resolveOptions(v any) (Options, error) {
	var o Options
	switch t := v.(type) {
	case nil:
	case *Options:
		if t != nil {
			o = *t
		}
	default:
		return Options{}, fmt.Errorf("dist: unsupported DistOpts type %T (want *dist.Options)", v)
	}
	if o.FrameTimeout <= 0 {
		o.FrameTimeout = defaultFrameTimeout
	}
	return o, nil
}

// countReader counts bytes read off a connection so a reply wait that
// times out can tell "no reply yet" (safe to resend on the same stream)
// from "timed out mid-frame" (the stream is desynced; the worker must be
// respawned).
type countReader struct {
	c net.Conn
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.c.Read(p)
	cr.n += int64(n)
	return n, err
}

// worker is the coordinator's handle to one shard's worker: the connection
// dialed to addr and, when the coordinator started the worker itself, the
// child process and the directory holding its socket.
type worker struct {
	shard int
	addr  string
	conn  net.Conn
	cr    *countReader

	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd has been reaped
	dir    string
}

// stop ends the worker: its connection and, for a child the coordinator
// started, the process (reaped) and its socket directory. A dialed worker
// just loses the connection and keeps listening for its next coordinator.
// Idempotent and nil-safe.
func (w *worker) stop() {
	if w == nil {
		return
	}
	if w.conn != nil {
		w.conn.Close()
	}
	if w.cmd != nil {
		w.cmd.Process.Kill()
		<-w.exited
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// slot is one shard's coordinator-side state. The worker handle is an
// atomic pointer so Close, its lock-free reader, never races the respawn
// path, and mu serializes everything that touches the connection: round
// trips, respawn + replay.
type slot struct {
	mu sync.Mutex
	w  atomic.Pointer[worker]
}

// Router is the coordinator: it owns the worker connections and the
// per-round request/reply exchange. It implements sim.DistRouter.
type Router struct {
	cfg   sim.DistRouterConfig
	ctx   context.Context
	opts  Options
	slots []*slot

	respawns atomic.Int64
	closed   atomic.Bool
}

// deadline is the end of a wait of d: now + d, or the run context's
// deadline when that comes first.
func (r *Router) deadline(d time.Duration) time.Time {
	t := time.Now().Add(d)
	if end, ok := r.ctx.Deadline(); ok && end.Before(t) {
		return end
	}
	return t
}

// sleep waits d, or until the run context's deadline when that comes first.
func (r *Router) sleep(d time.Duration) { time.Sleep(time.Until(r.deadline(d))) }

// ctxErr is the run context's error. A deadline counts once it has passed,
// even before the context's own timer has marked it done: a read that timed
// out at the deadline must not leave the next attempt a fresh one.
func (r *Router) ctxErr() error {
	if end, ok := r.ctx.Deadline(); ok && !time.Now().Before(end) {
		return context.DeadlineExceeded
	}
	return r.ctx.Err()
}

// New builds a Router for cfg and brings up one worker per shard: the
// pre-started ones Options.Connect names, or children it starts itself.
func New(cfg sim.DistRouterConfig) (*Router, error) {
	if cfg.Workers <= 0 || cfg.ShardSize <= 0 {
		return nil, fmt.Errorf("dist: bad router config (workers %d, shard size %d)", cfg.Workers, cfg.ShardSize)
	}
	opts, err := resolveOptions(cfg.Opts)
	if err != nil {
		return nil, err
	}
	if len(opts.Connect) > 0 && len(opts.Connect) != cfg.Workers {
		return nil, fmt.Errorf("dist: %d connect addresses for %d workers (one per shard required)",
			len(opts.Connect), cfg.Workers)
	}
	r := &Router{cfg: cfg, ctx: cfg.Ctx, opts: opts, slots: make([]*slot, cfg.Workers)}
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	for k := range r.slots {
		r.slots[k] = &slot{}
	}
	for k := range r.slots {
		w, err := r.startWorker(k)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.slots[k].w.Store(w)
	}
	return r, nil
}

// startWorker brings shard k's worker up — first start, respawn and re-dial
// alike: start a child unless Options.Connect names the worker's address,
// then dial and handshake, all of it by one deadline (handshakeTimeout, or
// the run context's deadline when that comes first). Errors are immediate
// and explicit — a gone worker must surface as a clean abort, never a hang —
// and wrap the context's error once the run has ended.
func (r *Router) startWorker(k int) (*worker, error) {
	w := &worker{shard: k}
	deadline := r.deadline(handshakeTimeout)
	var err error
	if len(r.opts.Connect) > 0 {
		w.addr = r.opts.Connect[k]
	} else {
		err = w.spawn(deadline)
	}
	if err == nil {
		err = r.handshake(w, deadline)
	}
	if err != nil {
		w.stop()
		if cerr := r.ctxErr(); cerr != nil {
			err = fmt.Errorf("%w: %w", err, cerr)
		}
		return nil, err
	}
	return w, nil
}

// spawn starts shard w.shard's child: a re-exec of this binary that the
// env hook in worker.go turns into a worker listening on a unix socket in a
// directory of its own (so a killed child's leftover socket file cannot
// trip its replacement), announcing the address on its stdout — a pipe,
// never the coordinator's own stdout. A child that has not announced by
// deadline is killed. On error the caller stops w, which cleans up whatever
// was started.
func (w *worker) spawn(deadline time.Time) error {
	bin, err := os.Executable()
	if err != nil {
		return fmt.Errorf("dist: resolving worker binary: %w", err)
	}
	// A fresh short directory keeps the socket path well under the
	// sun_path length limit regardless of TMPDIR.
	if w.dir, err = os.MkdirTemp("", "hybriddist"); err != nil {
		return fmt.Errorf("dist: socket dir: %w", err)
	}
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("%s=unix:%s", envListen, filepath.Join(w.dir, "worker.sock")),
		fmt.Sprintf("%s=%d", envShard, w.shard),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return fmt.Errorf("dist: starting worker %d (%s): %w", w.shard, bin, err)
	}
	w.cmd, w.exited = cmd, make(chan struct{})
	// A child that never announces is killed, which ends the read.
	timer := time.AfterFunc(time.Until(deadline), func() { cmd.Process.Kill() })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	timer.Stop()
	go func() {
		cmd.Wait()
		close(w.exited)
	}()
	if err != nil {
		return fmt.Errorf("dist: worker %d ended before announcing its address: %w", w.shard, err)
	}
	var ok bool
	if w.addr, ok = strings.CutPrefix(strings.TrimSpace(line), ListeningPrefix); !ok {
		return fmt.Errorf("dist: worker %d announced %q, want %q and an address", w.shard, line, ListeningPrefix)
	}
	return nil
}

// handshake dials w.addr, reads the worker's Join announcement, and
// configures the worker with the Hello, all by deadline. A Join or HelloAck
// at another protocol version fails with an error naming both versions.
func (r *Router) handshake(w *worker, deadline time.Time) error {
	conn, err := dialAddr(w.addr, deadline)
	if err != nil {
		return fmt.Errorf("dist: connecting to worker %d at %s: %w", w.shard, w.addr, err)
	}
	w.conn, w.cr = conn, &countReader{c: conn}
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})

	f, err := wire.ReadFrame(w.cr)
	if err != nil {
		return fmt.Errorf("dist: worker %d at %s: reading join announcement: %w", w.shard, w.addr, err)
	}
	if f.Type != wire.FrameJoin {
		return fmt.Errorf("dist: worker %d at %s: want a join announcement, got a %v frame", w.shard, w.addr, f.Type)
	}
	shard, err := wire.DecodeHandshake(f.Payload)
	if err != nil {
		return fmt.Errorf("dist: worker %d at %s: join handshake: %w", w.shard, w.addr, err)
	}
	if shard != wire.AnyShard && shard != w.shard {
		return fmt.Errorf("dist: worker at %s is pinned to shard %d, dialed as shard %d", w.addr, shard, w.shard)
	}

	lo := w.shard * r.cfg.ShardSize
	hi := lo + r.cfg.ShardSize
	if hi > r.cfg.N {
		hi = r.cfg.N
	}
	hello := wire.AppendFrame(nil, wire.Frame{
		Type: wire.FrameHello, Shard: w.shard,
		Payload: wire.AppendHello(nil, wire.Hello{N: r.cfg.N, Shard: w.shard, Lo: lo, Hi: hi}),
	})
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("dist: sending hello to worker %d: %w", w.shard, err)
	}
	if f, err = wire.ReadFrame(w.cr); err != nil {
		return fmt.Errorf("dist: hello ack from worker %d: %w", w.shard, err)
	}
	switch f.Type {
	case wire.FrameHelloAck:
		shard, err := wire.DecodeHandshake(f.Payload)
		if err != nil {
			return fmt.Errorf("dist: hello ack from worker %d: %w", w.shard, err)
		}
		if shard != w.shard && shard != wire.AnyShard {
			return fmt.Errorf("dist: worker %d acked the hello as shard %d", w.shard, shard)
		}
		return nil
	case wire.FrameError:
		return fmt.Errorf("dist: worker %d rejected hello: %s", w.shard, f.Payload)
	default:
		return fmt.Errorf("dist: unexpected %v frame during handshake with worker %d", f.Type, w.shard)
	}
}

// respawnLocked replaces shard k's worker after a connection-level failure
// and replays the pending request to it. Because workers are pure
// per-round functions, the replay is byte-identical. The caller holds the
// slot's mu.
func (r *Router) respawnLocked(k int, req []byte) (*worker, error) {
	sl := r.slots[k]
	if r.respawns.Load() >= maxRespawns {
		return nil, fmt.Errorf("dist: worker %d: respawn budget (%d) exhausted (worker flapping)", k, maxRespawns)
	}
	sl.w.Load().stop()
	r.respawns.Add(1)
	if r.opts.Faults != nil {
		r.opts.Faults.Respawned()
	}
	w, err := r.startWorker(k)
	if err != nil {
		if len(r.opts.Connect) > 0 {
			return nil, fmt.Errorf("dist: worker %d gone (re-dial %s failed): %w", k, r.opts.Connect[k], err)
		}
		return nil, fmt.Errorf("dist: respawning worker %d: %w", k, err)
	}
	sl.w.Store(w)
	if _, err := w.conn.Write(req); err != nil {
		return nil, fmt.Errorf("dist: replaying the pending request to worker %d: %w", k, err)
	}
	return w, nil
}

// RouteRound implements sim.DistRouter: every shard's request batch makes
// one round trip to its worker, all shards in parallel, and the sorted
// replies come back in shard order. An empty batch still makes the trip; the
// engine is what leaves a round with no global message unrouted. Rounds
// must be routed in ascending order (the engine's round loop guarantees
// this), not necessarily consecutive.
func (r *Router) RouteRound(round int, outgoing [][]sim.GlobalMsg) ([][]sim.GlobalMsg, sim.DistRoundStats, error) {
	if r.closed.Load() {
		return nil, sim.DistRoundStats{}, errors.New("dist: router is closed")
	}
	nw := len(r.slots)
	if len(outgoing) != nw {
		return nil, sim.DistRoundStats{}, fmt.Errorf("dist: %d request batches for %d workers", len(outgoing), nw)
	}
	results := make([][]sim.GlobalMsg, nw)
	errs := make([]error, nw)
	if nw == 1 {
		results[0], errs[0] = r.roundTrip(0, round, outgoing[0])
	} else {
		var wg sync.WaitGroup
		for k := 0; k < nw; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				results[k], errs[k] = r.roundTrip(k, round, outgoing[k])
			}(k)
		}
		wg.Wait()
	}
	var total sim.DistRoundStats
	for k := 0; k < nw; k++ {
		if errs[k] != nil {
			return nil, sim.DistRoundStats{}, errs[k]
		}
		total.GlobalMsgs += int64(len(results[k]))
	}
	return results, total, nil
}

// roundTrip sends shard k's request for round and awaits the reply,
// surviving timeouts (resend) and connection loss (respawn or re-dial +
// replay) within the bounded attempt budget. The encoded request is kept
// until the reply is in, so every resend and replay is byte-identical. Each
// attempt first checks the run's context, and every wait ends by its
// deadline, so an ended run is seen within one FrameTimeout (by its deadline
// when it has one).
func (r *Router) roundTrip(k, round int, out []sim.GlobalMsg) ([]sim.GlobalMsg, error) {
	sl := r.slots[k]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	req := wire.AppendFrame(nil, wire.Frame{
		Type:    wire.FrameRound,
		Round:   round,
		Shard:   k,
		Payload: wire.AppendMsgs(nil, out),
	})
	w := sl.w.Load()
	var lastErr error
	for attempt := 1; attempt <= retries; attempt++ {
		if err := r.ctxErr(); err != nil {
			return nil, fmt.Errorf("dist: worker %d: round %d abandoned: %w", k, round, err)
		}
		if attempt > 1 {
			r.sleep(backoffDelay(backoff, attempt-1))
		}
		var drop, kill bool
		var delay time.Duration
		if r.opts.Faults != nil {
			drop, kill, delay = r.opts.Faults.FrameFault(k, round)
		}
		if delay > 0 {
			r.sleep(delay)
		}
		if kill {
			w.stop()
		}
		// A dropped frame (fault injection) is simply not written: the
		// reply wait times out and the next attempt resends it.
		if !drop {
			if _, err := w.conn.Write(req); err != nil {
				if w, err = r.respawnLocked(k, req); err != nil {
					return nil, err
				}
			}
		}
		f, err := r.awaitReply(w, round)
		if err == nil {
			msgs, derr := wire.DecodeMsgs(f.Payload)
			if derr != nil {
				return nil, fmt.Errorf("dist: worker %d round %d reply: %w", k, round, derr)
			}
			return msgs, nil
		}
		lastErr = err
		if isTimeout(err) {
			// Dropped or late: the next attempt resends the identical
			// frame. A late reply that does arrive later is skipped as
			// stale by awaitReply.
			continue
		}
		var perr *protocolError
		if errors.As(err, &perr) {
			return nil, err
		}
		// Connection-level failure (EOF from a killed worker, reset,
		// desynced stream): replace the worker and replay the request.
		if w, err = r.respawnLocked(k, req); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("dist: worker %d: round %d failed after %d attempts: %w",
		k, round, retries, lastErr)
}

// protocolError marks worker-reported or structural protocol failures
// that retrying cannot fix.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return e.msg }

// awaitReply reads frames until the reply for round arrives or the
// attempt deadline — FrameTimeout, or the run context's deadline when that
// comes first — passes. A stale reply to an earlier round (a retransmit
// raced a late reply) is skipped.
func (r *Router) awaitReply(w *worker, round int) (wire.Frame, error) {
	w.conn.SetReadDeadline(r.deadline(r.opts.FrameTimeout))
	defer w.conn.SetReadDeadline(time.Time{})
	for {
		before := w.cr.n
		f, err := wire.ReadFrame(w.cr)
		if err != nil {
			if isTimeout(err) && w.cr.n != before {
				// The deadline fired mid-frame: the stream is desynced,
				// so resending would misparse. Report a non-timeout
				// error to force the respawn path.
				return wire.Frame{}, fmt.Errorf("dist: worker %d: reply timed out mid-frame", w.shard)
			}
			return wire.Frame{}, err
		}
		switch f.Type {
		case wire.FrameRoundReply:
			if f.Round == round {
				return f, nil
			}
			if f.Round > round {
				return wire.Frame{}, &protocolError{fmt.Sprintf(
					"dist: worker %d replied for round %d, want %d", w.shard, f.Round, round)}
			}
		case wire.FrameError:
			return wire.Frame{}, &protocolError{fmt.Sprintf(
				"dist: worker %d reported: %s", w.shard, f.Payload)}
		default:
			return wire.Frame{}, &protocolError{fmt.Sprintf(
				"dist: unexpected %v frame from worker %d", f.Type, w.shard)}
		}
	}
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close shuts the worker fleet down: a Shutdown frame to each, then the
// connection closed and any child the coordinator started killed and
// reaped, its socket directory removed. Idempotent.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	for _, sl := range r.slots {
		w := sl.w.Load()
		if w == nil {
			continue
		}
		w.conn.SetWriteDeadline(time.Now().Add(time.Second))
		w.conn.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameShutdown, Shard: w.shard}))
		w.stop()
	}
	return nil
}
