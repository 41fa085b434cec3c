// Package sim implements the HYBRID network model of Augustine et al.
// (SODA '20) as used by Kuhn & Schneider (PODC '20): synchronous message
// passing over a node set V = {0..n-1} with two communication modes.
//
//   - Local mode (LOCAL): in each round, every node may exchange messages of
//     arbitrary size with each of its neighbors in the local graph G.
//   - Global mode (NCC): in each round, every node may send O(log n)
//     messages of O(log n) bits each to arbitrary nodes.
//
// A node algorithm is a StepProgram, an explicit resumable state machine:
// one Step call runs exactly one round segment (read Env.Incoming, stage
// sends, report done) and nothing ever blocks. The paper's "in every round:
// send, then receive" loops are Loop values and its phase-after-phase
// composition is Sequence; see step.go for the contract. The number of
// rounds a run takes is exactly the round complexity the paper's theorems
// are stated in.
//
// # Engines
//
// Three interchangeable round engines implement the barrier and delivery;
// Config.Engine selects one, and the zero value is EngineStep.
//
// EngineStep runs the machines with no per-node goroutine: the engine's
// round loop iterates them in shard-parallel batches and then delivers — the
// loop IS the barrier, so rounds cost zero scheduler wake/park cycles. The
// node set is split into contiguous shards, at most GOMAXPROCS of them;
// senders stage outgoing messages, as they send, into their own shard's
// bucket for the destination's shard, and a persistent worker pool drains
// the buckets shard by shard, each worker owning the inboxes, receive
// counters and metric deltas of exactly one shard. Every node has one
// inbox, reset and refilled by each round's delivery, so steady-state
// rounds allocate nothing; delivery reads one bucket per shard pair, so a
// round costs work in what was sent, and nodes that declared themselves
// idle are not called at all. See step.go and sharded.go.
//
// EngineDist is EngineStep with global-mode delivery routed through worker
// OS processes. See dist.go.
//
// EngineLegacy is the reference implementation of the round-barrier
// contract: one goroutine per node driving the node's machine and blocking
// at a barrier between round segments, and a single coordinator that drains
// every node's staging bucket (legacy runs one shard, and stages per node,
// since its goroutines send concurrently) in node-ID order into freshly
// allocated inboxes. It calls every machine in every round, whatever
// the machine declared, and poisons an inbox once its round is over, so it
// is what the differential tests, the golden fixture, Loop's sleep-contract
// check and the inbox contract hold the other two against. See legacy.go.
//
// # Determinism
//
// All engines are deterministic and agree bit for bit: a destination's
// inbox is ordered by (sender ID, send order) regardless of engine or shard
// count, per-node and public randomness derive only from Config.Seed, and
// the engines' metric merges are commutative sum/max folds, so for a fixed
// seed every engine produces identical message sequences, results, and
// Metrics. engines_test.go, step_test.go, and the top-level differential
// tests enforce this property.
//
// # Model enforcement
//
// Global-mode send caps are enforced strictly (a program exceeding its cap
// is a bug, reported as a run error), as are local sends to non-neighbors
// and out-of-range global destinations. Global receive load is recorded,
// not enforced, because bounding it is a w.h.p. *claim* of the paper's
// protocols (Lemma D.2) that the test suite verifies empirically.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// Kind tags the protocol-level meaning of a global message.
type Kind uint16

// GlobalMsg is one global-mode message. Its payload is four 64-bit fields,
// so every message is Theta(log n) bits by construction (the paper permits a
// constant number of log n-bit words per message).
type GlobalMsg struct {
	Src, Dst int
	Kind     Kind
	F0       int64
	F1       int64
	F2       int64
	F3       int64
}

// LocalMsg is one local-mode message: an arbitrary payload received from a
// neighbor in G.
type LocalMsg struct {
	From    int
	Payload interface{}
}

// Inbox holds everything a node received in the round that just ended.
// Local messages are ordered by sender ID, then send order; global messages
// by sender ID, then send order. The ordering is deterministic.
type Inbox struct {
	Local  []LocalMsg
	Global []GlobalMsg
}

// Engine selects the round-engine implementation. See the package comment.
type Engine int

const (
	// EngineStep runs each node as an explicit resumable state machine
	// (StepProgram) with no per-node goroutine: the engine's round loop IS
	// the barrier, so rounds cost zero scheduler wake/park cycles. It is the
	// zero value: what a caller who selects nothing gets. See step.go.
	EngineStep Engine = iota
	// EngineLegacy is the reference implementation of the round-barrier
	// contract: one goroutine per node blocking at a barrier, a single
	// coordinator delivering with freshly allocated inboxes. It drives the
	// same machines and calls every one of them every round, which is what
	// the differential tests, the golden fixture and Loop's sleep-contract
	// check compare the step engine against. See legacy.go.
	EngineLegacy
	// EngineDist is the step engine with global-mode delivery routed
	// through per-shard worker OS processes over a wire protocol (unix
	// sockets by default). Node execution and local-mode delivery stay in
	// the coordinator — local payloads are arbitrary Go values — while
	// every global message makes a real serialize/route/deserialize trip
	// through its destination shard's worker. Requires a registered
	// DistRouter factory (importing repro/internal/dist provides one); see
	// dist.go in this package and the internal/dist package.
	EngineDist
)

// String names the engine for flags and benchmark labels.
func (e Engine) String() string {
	switch e {
	case EngineStep:
		return "step"
	case EngineLegacy:
		return "legacy"
	case EngineDist:
		return "dist"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Config controls model parameters and instrumentation.
type Config struct {
	// Seed roots all randomness (per-node streams and public randomness).
	Seed int64

	// Engine selects the round engine; the zero value is EngineStep. All
	// engines produce identical results and Metrics for identical seeds.
	Engine Engine

	// Shards overrides the step engine's shard count. Zero (the default)
	// autotunes: one shard per available CPU, capped so every
	// shard keeps enough nodes to amortize the per-round fan-out (see
	// initSharded). Results are independent of the value; it exists for
	// tuning and for determinism tests across shard counts.
	Shards int

	// DistWorkers sets how many worker processes EngineDist spawns; the
	// distributed engine runs one shard per worker, so this replaces the
	// Shards autotune under EngineDist (Shards is ignored there). Zero or
	// negative means DefaultDistWorkers. Results are independent of the
	// value. Other engines ignore it.
	DistWorkers int

	// DistOpts carries transport/robustness options for EngineDist as an
	// opaque value the registered DistRouter factory understands (a
	// *dist.Options — typed any here so this package does not import the
	// router implementation). Nil uses the router's defaults. Other
	// engines ignore it.
	DistOpts any

	// GlobalSendFactor scales the global-mode send cap:
	// cap = GlobalSendFactor * ceil(log2 n). Zero means 1. The paper's
	// algorithms pace their global traffic in Theta(log n) chunks, so 1 is
	// the faithful default; experiments may raise it to study the tradeoff.
	GlobalSendFactor int

	// MaxRounds aborts runs that exceed this many rounds (guards against
	// non-terminating programs). Zero means DefaultMaxRounds.
	MaxRounds int

	// Cut, if non-nil, marks a node bipartition (true = "Alice" side). The
	// engine counts global messages and bits crossing the cut; the
	// lower-bound experiments (E8, E9) read these counters.
	Cut []bool

	// Ctx, if non-nil, cancels the run cooperatively: every engine checks
	// it at each round boundary and aborts with an error wrapping
	// ctx.Err(), so errors.Is(err, context.Canceled) (or DeadlineExceeded)
	// holds for the returned error. Node programs never observe the
	// context; they are unwound through the engines' abort path.
	Ctx context.Context

	// OnRound, if non-nil, is invoked once per completed round barrier,
	// after delivery, with the number of rounds completed so far. It runs
	// on the engine's coordinator (never on a node goroutine) on every
	// engine, so it must be fast and must not call back into the run.
	// The final generation that retires the last nodes also ticks, so the
	// last value may exceed the returned Metrics.Rounds by one, and the
	// hook may still fire for the generation in which a run failed
	// (MaxRounds, cancellation, model violation).
	OnRound func(round int)
}

// DefaultMaxRounds bounds runaway executions.
const DefaultMaxRounds = 1 << 22

// Metrics aggregates everything measured during a run.
type Metrics struct {
	// Rounds is the number of synchronous rounds the run took (the
	// quantity all of the paper's bounds are about).
	Rounds int
	// GlobalMsgs is the total number of global-mode messages delivered.
	GlobalMsgs int64
	// GlobalBits is GlobalMsgs scaled by the per-message bit size.
	GlobalBits int64
	// LocalMsgs is the total number of local-mode messages delivered.
	LocalMsgs int64
	// LocalBits is the payload bit volume of local-mode messages: the sum
	// over delivered local messages of the word count their sender stated
	// (BroadcastLocalWords; one word for SendLocal and BroadcastLocal),
	// scaled by the ceil(log2 n)-bit word size. Batch and vector payloads
	// make per-message size very uneven, so LocalMsgs alone understates
	// LOCAL-mode traffic.
	LocalBits int64
	// MaxGlobalSend is the maximum number of global messages any node sent
	// in a single round (never exceeds the cap, which is enforced).
	MaxGlobalSend int
	// MaxGlobalRecv is the maximum number of global messages any node
	// received in a single round (the Lemma D.2 quantity).
	MaxGlobalRecv int
	// CutGlobalMsgs / CutGlobalBits count global messages crossing the
	// configured cut (0 if no cut configured).
	CutGlobalMsgs int64
	CutGlobalBits int64
}

// Log2Ceil returns ceil(log2 n), at least 1.
func Log2Ceil(n int) int {
	l := 1
	for (1 << l) < n {
		l++
	}
	return l
}

// errAbort is the sentinel used to unwind node goroutines after an abort.
var errAbort = errors.New("sim: run aborted")

// ErrTooManyRounds is wrapped in the Run error when MaxRounds is hit.
var ErrTooManyRounds = errors.New("sim: exceeded MaxRounds")

// roundBoundary runs the engine-independent per-round checks: the MaxRounds
// guard, the progress hook and the cooperative cancellation check. Every
// engine calls it exactly once per completed round barrier, after delivery
// (the step engine also once per round it fast-forwards over).
func (e *engine) roundBoundary() {
	if e.generation >= e.cfg.MaxRounds {
		e.fail(fmt.Errorf("%w (%d)", ErrTooManyRounds, e.cfg.MaxRounds))
	}
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(e.generation)
	}
	if ctx := e.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			e.fail(fmt.Errorf("sim: run cancelled in round %d: %w", e.generation, err))
		}
	}
}

type engine struct {
	g       *graph.Graph
	cfg     Config
	n       int
	logN    int
	sendCap int
	msgBits int64
	src     *bitrand.Source // roots the per-node streams (Env.Rand)

	envs []*Env

	aborted atomic.Bool
	errMu   sync.Mutex
	err     error

	sharedMu sync.Mutex
	shared   map[sharedKey]interface{}
	agreed   map[any]any // Agreed's slots: the value built last, per key

	generation int
	metrics    Metrics

	// Legacy-engine barrier state (see legacy.go).
	release   atomic.Value // chan struct{}; swapped at each round boundary
	remaining int32
	ready     chan struct{} // signaled when remaining hits zero

	// Staging, on every engine (sharded.go; EngineLegacy runs one shard).
	nShards   int
	shardSize int
	stage     []bucket // [group*nShards + destination shard]; see initStaging

	// Step-loop state (zero under EngineLegacy): runShard's receive
	// counters, the pool of sharded.go and the round loop of step.go.
	recvCount  []int
	workCh     chan shardTask   // shards 1.. of a fanOut, to the pool
	resCh      chan shardResult // their results, back to the coordinator
	poll       bool             // waiters poll before parking (recvPoll)
	progs      []StepProgram
	stepActive int  // unfinished nodes in the current step run
	woke       bool // the last delivery reached a sleeping node

	// Distributed-engine state (nil unless EngineDist); see dist.go.
	distMode   bool
	distRouter DistRouter
	distReqs   [][]GlobalMsg // per-shard request batches, reused across rounds
}

// Env is a node's handle to the engine. All methods must be called only
// from inside the node's own Step call (or its StepFactory).
type Env struct {
	eng *engine
	id  int

	rng      *rand.Rand // made by the first Rand call
	round    int
	finished bool

	// Staging: the node's staging group's buckets, one per destination
	// shard (see sharded.go).
	out []bucket

	// The inbox delivery fills for the node's next round: reset and refilled
	// in place by the step loop, replaced by a fresh one at every legacy
	// barrier.
	inLocal  []LocalMsg
	inGlobal []GlobalMsg

	// curInbox is the inbox of the round being executed, set by the engine
	// before each StepProgram.Step call; wake is the round before which the
	// step loop does not call the node's machine unless a message arrives
	// for it (SleepUntil; 0 when awake). See step.go.
	curInbox Inbox
	wake     int

	// staged counts every message this node ever staged, local and global;
	// Loop's sleep-contract check compares it across one Step call.
	staged              int
	globalSentThisRound int
	countedFinished     bool
	sharedSeq           map[string]int
	scratch             any // see Scratch
}

// localOut is one staged local message; words is its sender's word count.
type localOut struct {
	from, to int32
	words    int64
	payload  interface{}
}

// bucket is one staging group's messages for one destination shard, in
// staging order. The padding keeps two groups' buckets, written by two
// workers, off one cache line.
type bucket struct {
	local  []localOut
	global []GlobalMsg
	_      [16]byte
}

// newEngine validates cfg, applies defaults, and builds the engine and the
// per-node Envs. A nil engine with a nil error means the run is empty.
func newEngine(g *graph.Graph, cfg Config) (*engine, error) {
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	if cfg.GlobalSendFactor <= 0 {
		cfg.GlobalSendFactor = 1
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.Cut != nil && len(cfg.Cut) != n {
		return nil, fmt.Errorf("sim: cut has %d entries for %d nodes", len(cfg.Cut), n)
	}
	logN := Log2Ceil(n)
	eng := &engine{
		g:       g,
		cfg:     cfg,
		n:       n,
		logN:    logN,
		sendCap: cfg.GlobalSendFactor * logN,
		// src + dst + kind + four fields, all O(log n)-bit quantities.
		msgBits: int64(6*logN + 16),
		src:     bitrand.NewSource(cfg.Seed),
		ready:   make(chan struct{}, 1),
	}
	eng.release.Store(make(chan struct{}))
	eng.envs = make([]*Env, n)
	for i := 0; i < n; i++ {
		eng.envs[i] = &Env{eng: eng, id: i}
	}
	atomic.StoreInt32(&eng.remaining, int32(n))
	return eng, nil
}

// results computes the final Metrics and error after all nodes stopped.
// Round complexity = the maximum number of completed round barriers over
// all nodes (the final finishing generation is not a communication round).
func (e *engine) results() (Metrics, error) {
	for _, env := range e.envs {
		if env.round > e.metrics.Rounds {
			e.metrics.Rounds = env.round
		}
	}
	e.errMu.Lock()
	err := e.err
	e.errMu.Unlock()
	return e.metrics, err
}

// fail records the first error and flags the abort.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.aborted.Store(true)
}
