// Package sim implements the HYBRID network model of Augustine et al.
// (SODA '20) as used by Kuhn & Schneider (PODC '20): synchronous message
// passing over a node set V = {0..n-1} with two communication modes.
//
//   - Local mode (LOCAL): in each round, every node may exchange messages of
//     arbitrary size with each of its neighbors in the local graph G.
//   - Global mode (NCC): in each round, every node may send O(log n)
//     messages of O(log n) bits each to arbitrary nodes.
//
// A node algorithm is written in one of two interchangeable execution
// models. A Program is a blocking function: a call to Env.Step ends the
// node's round and blocks until every other node has ended the round too,
// at which point the engine delivers all staged messages. A StepProgram is
// an explicit resumable state machine: one Step call runs exactly one
// round segment (read Env.Incoming, stage sends, report done), and nothing
// ever blocks. Either model runs on every engine — see step.go for the
// contract and the adapters — and the number of barrier generations is
// exactly the round complexity the paper's theorems are stated in.
//
// # Engines
//
// Three interchangeable round engines implement the barrier and delivery;
// Config.Engine selects one.
//
// EngineSharded (the default, "sim v2") runs each Program as a goroutine
// and splits the node set into contiguous shards, at most GOMAXPROCS of
// them. Senders stage outgoing messages into per-destination-shard buckets
// as they send, and at the round boundary a persistent worker pool drains
// the buckets shard by shard — each worker owns the inboxes, receive
// counters, and metric deltas of exactly one shard, so delivery is
// lock-free and scales with cores. Inboxes are preallocated and
// double-buffered so steady-state rounds allocate nothing, and senders
// that staged nothing are skipped via dirty flags (sparse rounds are the
// common case in delta-style flooding). See sharded.go.
//
// EngineStep ("sim v3") runs each node as a StepProgram with no per-node
// goroutine: the engine's round loop iterates the machines in
// shard-parallel batches and then runs the sharded delivery path — the
// loop IS the barrier, so rounds cost zero scheduler wake/park cycles.
// Programs without a step port run on it through a goroutine-backed
// adapter. See step.go and RunStep.
//
// EngineLegacy is the original engine: a single coordinator goroutine
// drains every node's flat outbox in node-ID order with freshly allocated
// inboxes each round. It is retained as the differential-testing oracle.
//
// # Determinism
//
// All engines are deterministic and agree bit for bit: a destination's
// inbox is ordered by (sender ID, send order) regardless of engine, shard
// count, or execution model, per-node and public randomness derive only
// from Config.Seed, and the engines' metric merges are commutative
// sum/max folds, so for a fixed seed every engine produces identical
// message sequences, results, and Metrics. engines_test.go, step_test.go,
// and the top-level differential tests enforce this property across the
// engine × execution-model matrix.
//
// # Model enforcement
//
// Global-mode send caps are enforced strictly (a program exceeding its cap
// is a bug, reported as a run error), as are local sends to non-neighbors
// and out-of-range global destinations. Global receive load is recorded,
// not enforced, because bounding it is a w.h.p. *claim* of the paper's
// protocols (Lemma D.2) that the test suite verifies empirically;
// Config.StrictRecvFactor opts into treating overload as an error.
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

// WordSized is implemented by local-mode payload types that want accurate
// accounting in Metrics.LocalBits: PayloadWords reports the payload's size
// in O(log n)-bit words (the unit all of the paper's bandwidth statements
// use). Payloads that do not implement it are charged one word. The method
// must be cheap and must not mutate the payload: every engine calls it once
// per delivered message on the delivery path.
type WordSized interface {
	PayloadWords() int64
}

// payloadWords returns the LocalBits word charge for one payload.
func payloadWords(p interface{}) int64 {
	if ws, ok := p.(WordSized); ok {
		return ws.PayloadWords()
	}
	return 1
}

// Inbox holds everything a node received in the round that just ended.
// Local messages are ordered by sender ID, then send order; global messages
// by sender ID, then send order. The ordering is deterministic.
type Inbox struct {
	Local  []LocalMsg
	Global []GlobalMsg
}

// Program is the algorithm executed by every node. Implementations switch on
// env.ID() when nodes play different roles. Programs communicate results by
// writing to captured per-node output slots.
type Program func(env *Env)

// Engine selects the round-engine implementation. See the package comment.
type Engine int

const (
	// EngineSharded is the default engine: per-shard staging buckets,
	// worker-pool delivery, reused double-buffered inboxes. Node programs
	// are goroutines synchronized at the round barrier.
	EngineSharded Engine = iota
	// EngineLegacy is the original goroutine-per-node engine with a single
	// delivery coordinator, kept as a differential-testing oracle.
	EngineLegacy
	// EngineStep runs each node as an explicit resumable state machine
	// (StepProgram) with no per-node goroutine: the engine's round loop IS
	// the barrier, so rounds cost zero scheduler wake/park cycles. Legacy
	// Programs run on it through a goroutine-backed adapter; step-native
	// programs run on the goroutine engines through DriveProgram. See
	// step.go and RunStep.
	EngineStep
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
	case EngineLegacy:
		return "legacy"
	case EngineStep:
		return "step"
	case EngineDist:
		return "dist"
	default:
		return "sharded"
	}
}

// Config controls model parameters and instrumentation.
type Config struct {
	// Seed roots all randomness (per-node streams and public randomness).
	Seed int64

	// Engine selects the round engine (default EngineSharded). Both
	// engines produce identical results and Metrics for identical seeds.
	Engine Engine

	// Shards overrides the sharded engine's shard count. Zero (the
	// default) autotunes: one shard per available CPU, capped so every
	// shard keeps enough nodes to amortize the per-round fan-out (see
	// initSharded). Results are independent of the value; it exists for
	// tuning and for determinism tests across shard counts.
	Shards int

	// StepBatch controls how the step engine distributes a round's machine
	// calls across the worker pool when more than one shard is active.
	// Zero (the default) assigns each worker its whole shard; a positive
	// value switches to work-stealing batches of that many nodes, which
	// rebalances rounds whose active nodes cluster in few shards; a
	// negative value autotunes the batch width from the shard size.
	// Results are independent of the value (senders stage into per-shard
	// buckets and delivery drains them in ascending sender ID regardless
	// of who stepped the sender); the randomized differential tests draw
	// it alongside Shards to enforce that.
	StepBatch int

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

	// StrictRecvFactor, if positive, aborts the run when a node receives
	// more than StrictRecvFactor*ceil(log2 n) global messages in one round.
	// Zero disables enforcement (load is still recorded in Metrics).
	StrictRecvFactor int

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
	// over delivered local messages of the payload's word count (the
	// WordSized contract; unknown payloads count as one word) scaled by the
	// ceil(log2 n)-bit word size. Batch and vector payloads make per-message
	// size very uneven, so LocalMsgs alone understates LOCAL-mode traffic.
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

	envs []*Env

	release   atomic.Value // chan struct{}; swapped at each round boundary
	remaining int32
	ready     chan struct{} // signaled when remaining hits zero

	aborted atomic.Bool
	errMu   sync.Mutex
	err     error

	sharedMu sync.Mutex
	shared   map[string]interface{}

	generation int
	metrics    Metrics

	// Sharded-engine state (nil/zero under EngineLegacy); see sharded.go.
	sharded   bool
	nShards   int
	shardSize int
	recvCount []int
	dirty     [][]bool // [shard][sender]: sender staged something for shard
	workCh    chan shardTask
	resCh     chan shardResult

	// Step-engine state (nil unless EngineStep); see step.go.
	stepMode   bool
	progs      []StepProgram
	adGroups   []*adapterGroup // per-shard adapter multiplexers, nil entries for all-native shards
	stepActive int             // unfinished nodes in the current step run
	woke       bool            // the last delivery reached a sleeping node
	stepBatch  int             // resolved work-stealing batch width, 0 = whole-shard tasks
	stepCursor atomic.Int64    // next node to claim in a batched step generation

	// Distributed-engine state (nil unless EngineDist); see dist.go.
	distMode   bool
	distRouter DistRouter
	distReqs   [][]GlobalMsg // per-shard request batches, reused across rounds
}

// Env is a node's handle to the engine. All methods must be called only
// from that node's Program goroutine.
type Env struct {
	eng *engine
	id  int

	rng      *rand.Rand
	round    int
	finished bool

	// Legacy-engine staging: flat outboxes, fresh inboxes each round.
	outLocal  []localOut
	outGlobal []GlobalMsg

	inLocal  []LocalMsg
	inGlobal []GlobalMsg

	// Sharded-engine staging: per-destination-shard buckets and
	// double-buffered reused inboxes (see sharded.go).
	outLocalSh  [][]localOut
	outGlobalSh [][]GlobalMsg
	inLocalBuf  [2][]LocalMsg
	inGlobalBuf [2][]GlobalMsg

	// Step-engine state: the inbox of the round being executed (set by the
	// engine before each StepProgram.Step call, or by DriveProgram under the
	// goroutine engines), the adapter handle when this node runs a legacy
	// Program on the step engine, and the round before which the round loop
	// does not call the node's machine unless a message arrives for it
	// (SleepUntil; 0 when awake). See step.go.
	curInbox Inbox
	adapter  *programAdapter
	wake     int

	// staged counts every message this node ever staged, local and global;
	// Loop's sleep-contract check compares it across one Step call.
	staged              int
	globalSentThisRound int
	countedFinished     bool
	sharedSeq           map[string]int
}

type localOut struct {
	to      int
	payload interface{}
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
		ready:   make(chan struct{}, 1),
	}
	eng.release.Store(make(chan struct{}))
	src := bitrand.NewSource(cfg.Seed)
	eng.envs = make([]*Env, n)
	for i := 0; i < n; i++ {
		eng.envs[i] = &Env{
			eng: eng,
			id:  i,
			rng: src.Named("node", i),
		}
	}
	atomic.StoreInt32(&eng.remaining, int32(n))
	return eng, nil
}

// Run executes program on every node of g under cfg and returns the
// collected metrics. It returns an error if any node violated the model
// (illegal local destination, global send cap exceeded), if the run hit
// MaxRounds, or if a program panicked. Under EngineStep the program runs
// through the goroutine-backed adapter (see step.go); results and Metrics
// are identical on every engine for a fixed seed.
func Run(g *graph.Graph, cfg Config, program Program) (Metrics, error) {
	if cfg.Engine == EngineStep || cfg.Engine == EngineDist {
		return RunStep(g, cfg, AdaptProgram(program))
	}
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return Metrics{}, err
	}
	n := eng.n
	if cfg.Engine != EngineLegacy {
		eng.initSharded()
		defer eng.stopSharded()
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		env := eng.envs[i]
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if r != errAbort { //nolint:errorlint // sentinel identity check
						eng.fail(fmt.Errorf("sim: node %d panicked: %v", env.id, r))
					}
				}
				env.finished = true
				env.arrive()
			}()
			program(env)
		}()
	}

	eng.coordinate()
	wg.Wait()
	return eng.results()
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

// coordinate runs the barrier loop: wait for all active nodes, deliver
// messages, advance the round.
func (e *engine) coordinate() {
	active := e.n
	for {
		<-e.ready
		var finishedNow int
		if e.sharded {
			finishedNow = e.deliverSharded()
		} else {
			finishedNow = e.deliver()
		}
		active -= finishedNow
		e.roundBoundary()
		if active == 0 {
			// Release any stragglers (none should exist) and stop.
			e.swapRelease()
			return
		}
		atomic.StoreInt32(&e.remaining, int32(active))
		e.swapRelease()
	}
}

// swapRelease installs a new release channel and closes the old one, waking
// every node blocked in Step. A node always loads its release channel
// BEFORE arriving at the barrier, and the swap happens only after every
// node has arrived, so no node can observe the new channel for the round
// it is finishing.
func (e *engine) swapRelease() {
	old := e.release.Load().(chan struct{})
	e.release.Store(make(chan struct{}))
	close(old)
}

func (e *engine) currentRelease() chan struct{} {
	return e.release.Load().(chan struct{})
}

// deliver moves every staged outbox into the destination inboxes, updates
// metrics, and returns how many nodes finished during this round.
func (e *engine) deliver() int {
	e.generation++
	finished := 0
	recvCount := make([]int, e.n)

	for _, env := range e.envs {
		if env.globalSentThisRound > e.metrics.MaxGlobalSend {
			e.metrics.MaxGlobalSend = env.globalSentThisRound
		}
		env.globalSentThisRound = 0

		for _, out := range env.outLocal {
			dst := e.envs[out.to]
			dst.inLocal = append(dst.inLocal, LocalMsg{From: env.id, Payload: out.payload})
			e.metrics.LocalMsgs++
			e.metrics.LocalBits += payloadWords(out.payload) * int64(e.logN)
		}
		env.outLocal = env.outLocal[:0]

		for _, m := range env.outGlobal {
			dst := e.envs[m.Dst]
			dst.inGlobal = append(dst.inGlobal, m)
			recvCount[m.Dst]++
			e.metrics.GlobalMsgs++
			e.metrics.GlobalBits += e.msgBits
			if e.cfg.Cut != nil && e.cfg.Cut[m.Src] != e.cfg.Cut[m.Dst] {
				e.metrics.CutGlobalMsgs++
				e.metrics.CutGlobalBits += e.msgBits
			}
		}
		env.outGlobal = env.outGlobal[:0]

		if env.finished && !env.countedFinished {
			env.countedFinished = true
			finished++
		}
	}

	for dst, c := range recvCount {
		if c > e.metrics.MaxGlobalRecv {
			e.metrics.MaxGlobalRecv = c
		}
		if f := e.cfg.StrictRecvFactor; f > 0 && c > f*e.logN {
			e.fail(fmt.Errorf("sim: node %d received %d global messages in generation %d, cap %d",
				dst, c, e.generation, f*e.logN))
		}
	}
	return finished
}
