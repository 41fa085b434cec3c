package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/sim"
)

// The worker side of the distributed engine. A worker serves one shard:
// each round it receives the shard's staged global messages (in sender
// order), checks that every destination is in the shard, sorts them into
// delivery order (per destination: ascending sender ID, then send order —
// stable sort by destination preserves exactly that), and sends the sorted
// stream back; the coordinator counts everything else. The worker is a
// pure function of (Hello, round batch) plus a one-reply cache, which is
// what makes kill/respawn/replay byte-identical: a respawned worker replays
// the round from the retransmitted request and necessarily produces the
// same bytes, and a duplicate request (retransmit after a lost reply) is
// answered from the cache without recomputation.
//
// Workers listen and coordinators dial. A resident worker is
// cmd/hybridworker -listen (StartListenWorker + Serve); the children a
// coordinator starts for itself are not a separate binary: worker.spawn
// re-execs the *current* executable with HYBRID_DIST_LISTEN set, and the
// init hook below hijacks any such process before main (or TestMain) runs.

// Environment variables of the re-exec handshake: the scheme-prefixed
// listen spec, and the shard the child is pinned to.
const (
	envListen = "HYBRID_DIST_LISTEN"
	envShard  = "HYBRID_DIST_SHARD"
)

// ListeningPrefix starts the line a worker process prints on stdout once
// its socket is bound; the dialable address follows.
const ListeningPrefix = "HYBRID_DIST_LISTENING "

// init turns a process started with HYBRID_DIST_LISTEN into a coordinator's
// child: it announces the bound address, serves the one coordinator that
// dials, and exits — also when nobody dials within handshakeTimeout, so a
// child never outlives the coordinator that started it.
func init() {
	spec := os.Getenv(envListen)
	if spec == "" {
		return
	}
	shard, err := strconv.Atoi(os.Getenv(envShard))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybrid dist worker: bad %s: %v\n", envShard, err)
		os.Exit(2)
	}
	lw, err := StartListenWorker(spec, shard)
	if err == nil {
		fmt.Println(ListeningPrefix + lw.Addr())
		err = lw.serveFirst(handshakeTimeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybrid dist worker %d: %v\n", shard, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ListenWorker is a worker waiting for coordinators, serving them one at a
// time. Each accepted connection is announced with a Join frame carrying
// the protocol version this build speaks and the worker's shard pinning, then
// served with the normal protocol loop; when a connection ends (shutdown,
// coordinator death, kill fault) a resident worker goes back to accepting,
// which is what makes coordinator-side re-dial recovery work.
type ListenWorker struct {
	ln     net.Listener
	addr   string
	shard  int // wire.AnyShard when unpinned
	closed atomic.Bool
}

// StartListenWorker opens the listen socket for spec (e.g. "tcp::9000")
// and returns the worker, ready to Serve. shard pins the worker to one
// shard; pass wire.AnyShard to let the coordinator assign it by which
// address slot it dialed.
func StartListenWorker(spec string, shard int) (*ListenWorker, error) {
	if shard < wire.AnyShard {
		return nil, fmt.Errorf("dist: bad shard %d", shard)
	}
	ln, addr, err := listenSpec(spec)
	if err != nil {
		return nil, err
	}
	return &ListenWorker{ln: ln, addr: addr, shard: shard}, nil
}

// Addr is the bound, dialable scheme-prefixed address — pass it to
// dist.Options.Connect.
func (lw *ListenWorker) Addr() string { return lw.addr }

// Serve accepts coordinator connections until Close. Serving errors on
// one connection are reported on stderr and the worker keeps accepting;
// only listener failure (or Close) ends the loop.
func (lw *ListenWorker) Serve() error {
	for {
		conn, err := lw.ln.Accept()
		if err != nil {
			if lw.closed.Load() {
				return nil
			}
			return fmt.Errorf("dist: listen worker accept: %w", err)
		}
		lw.serveOne(conn)
	}
}

// serveFirst serves the first coordinator to dial within wait and returns
// when that connection ends.
func (lw *ListenWorker) serveFirst(wait time.Duration) error {
	if d, ok := lw.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(wait))
	}
	conn, err := lw.ln.Accept()
	lw.Close()
	if err != nil {
		return fmt.Errorf("dist: no coordinator dialed: %w", err)
	}
	lw.serveOne(conn)
	return nil
}

// serveOne announces and serves a single coordinator connection.
func (lw *ListenWorker) serveOne(conn net.Conn) {
	defer conn.Close()
	frameShard := lw.shard
	if frameShard < 0 {
		frameShard = 0 // frame headers are unsigned; the payload carries AnyShard
	}
	join := wire.AppendFrame(nil, wire.Frame{
		Type:    wire.FrameJoin,
		Shard:   frameShard,
		Payload: wire.AppendHandshake(nil, lw.shard),
	})
	if _, err := conn.Write(join); err != nil {
		fmt.Fprintf(os.Stderr, "hybrid dist worker: sending join: %v\n", err)
		return
	}
	if err := ServeConn(conn); err != nil {
		fmt.Fprintf(os.Stderr, "hybrid dist worker: %v\n", err)
	}
}

// Close stops the accept loop.
func (lw *ListenWorker) Close() error {
	lw.closed.Store(true)
	return lw.ln.Close()
}

// workerState is the per-connection round-serving state, configured by
// the Hello frame. Its buffers are reused by every round, so no allocation
// grows with the batch.
type workerState struct {
	shard  int
	lo, hi int
	// The last round served and its encoded reply frame, kept so a
	// retransmit is answered byte-identically without recomputation.
	lastRound int
	lastReply []byte
	// batch is the decoded request, scratch sortRound's second buffer (the
	// sorted stream ends in either), payload the encoded sorted stream.
	batch, scratch []sim.GlobalMsg
	payload        []byte
}

// ServeConn runs the worker protocol loop over one coordinator
// connection until a Shutdown frame, EOF, or an unrecoverable error. It
// is exported so tests can drive the exact production loop in-process
// (over net.Pipe), where coverage and the race detector see it. Only this
// goroutine writes to conn. One frame buffer serves every read and the
// workerState's buffers every round, so a round costs time linear in its
// batch and allocates nothing that grows with it.
func ServeConn(conn net.Conn) error {
	var st *workerState
	var buf []byte
	for {
		var f wire.Frame
		var err error
		f, buf, err = wire.ReadFrameInto(conn, buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		var out []byte
		switch f.Type {
		case wire.FrameHello:
			h, err := wire.DecodeHello(f.Payload)
			if err != nil {
				// Best effort: the connection ends with the error either way.
				conn.Write(errorFrame(err.Error()))
				return fmt.Errorf("dist: refusing hello: %w", err)
			}
			st = &workerState{shard: h.Shard, lo: h.Lo, hi: h.Hi}
			out = wire.AppendFrame(nil, wire.Frame{Type: wire.FrameHelloAck, Shard: h.Shard,
				Payload: wire.AppendHandshake(nil, h.Shard)})
		case wire.FrameRound:
			if st == nil {
				out = errorFrame("round before hello")
			} else {
				out = st.reply(f)
			}
		case wire.FrameShutdown:
			return nil
		default:
			return fmt.Errorf("dist: worker received unexpected %v frame", f.Type)
		}
		if _, err := conn.Write(out); err != nil {
			return err
		}
	}
}

// errorFrame encodes a worker-side protocol failure for the coordinator.
func errorFrame(msg string) []byte {
	return wire.AppendFrame(nil, wire.Frame{Type: wire.FrameError, Payload: []byte(msg)})
}

// reply answers one round request. A duplicate of the round just served —
// the coordinator's retry path resent after a lost or late reply — is
// answered from the cache: recomputing would be byte-identical, resending is
// cheaper. A batch that does not decode or belong to the shard is answered
// with an error frame, and the cache keeps the last round served.
func (st *workerState) reply(f wire.Frame) []byte {
	if st.lastReply != nil && f.Round == st.lastRound {
		return st.lastReply
	}
	var sorted []sim.GlobalMsg
	var err error
	st.batch, err = wire.AppendDecodedMsgs(st.batch[:0], f.Payload)
	if err == nil {
		sorted, err = st.sortRound(st.batch)
	}
	if err != nil {
		return errorFrame(fmt.Sprintf("round %d: %v", f.Round, err))
	}
	st.payload = wire.AppendMsgs(st.payload[:0], sorted)
	st.lastRound = f.Round
	st.lastReply = wire.AppendFrame(st.lastReply[:0], wire.Frame{
		Type:    wire.FrameRoundReply,
		Round:   f.Round,
		Shard:   st.shard,
		Payload: st.payload,
	})
	return st.lastReply
}

// sortRound checks that every message of the batch is for the shard and
// returns the batch stable-sorted by destination: within a destination the
// request order (ascending sender, then send order) survives, which is
// exactly the engine's inbox contract. It is an LSD radix sort on the key
// Dst−Lo, one byte per pass with 256 buckets, over as many bytes as the
// largest key present needs (one pass for a shard of up to 256 nodes). Each
// pass scatters between msgs and st.scratch, so the result is one of the
// two. The work is linear in the batch, and the scratch is as long as the
// batch: the shard range the Hello declared (up to 2^31 nodes) sizes
// nothing.
func (st *workerState) sortRound(msgs []sim.GlobalMsg) ([]sim.GlobalMsg, error) {
	var keys uint // the OR of every key: its highest set bit bounds the passes
	for _, m := range msgs {
		if m.Dst < st.lo || m.Dst >= st.hi {
			return nil, fmt.Errorf("message for node %d outside shard range [%d,%d)", m.Dst, st.lo, st.hi)
		}
		keys |= uint(m.Dst - st.lo)
	}
	st.scratch = slices.Grow(st.scratch[:0], len(msgs))[:len(msgs)]
	src, dst := msgs, st.scratch
	for shift := uint(0); keys>>shift != 0; shift += 8 {
		var start [256]int
		for i := range src {
			start[byte(uint(src[i].Dst-st.lo)>>shift)]++
		}
		sum := 0
		for b, c := range start {
			start[b], sum = sum, sum+c
		}
		for _, m := range src {
			b := byte(uint(m.Dst-st.lo) >> shift)
			dst[start[b]] = m
			start[b]++
		}
		src, dst = dst, src
	}
	return src, nil
}
