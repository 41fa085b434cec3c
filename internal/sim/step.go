package sim

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// This file implements the StepProgram execution model and EngineStep, the
// goroutine-free round engine that runs it.
//
// Each node is an explicit resumable state machine (StepProgram) and the
// engine's round loop IS the barrier —
//
//	for every round:
//	    for every unfinished node (in shard-parallel batches):
//	        install the node's inbox; run its StepProgram.Step
//	    deliver staged messages (sharded.go)
//
// No node blocks, so no node ever parks or wakes: a round costs one
// function call per node plus delivery. (A goroutine per node blocking at a
// barrier — EngineLegacy — puts two scheduler wake/park cycles on every
// (node, round) pair instead: ~0.4µs/node/round at n = 16384, which
// dominated APSP wall clock.)
//
// # The StepProgram contract
//
// One Step call executes one round segment — the code between two
// consecutive round barriers:
//
//   - Read the round's inbox with Env.Incoming (empty on the first call).
//     The slices are owned by the node until its next round segment and
//     must not be retained.
//   - Stage sends with SendLocal / BroadcastLocal / SendGlobal.
//   - Return false to take the round barrier, true when the node is done.
//     Returning true consumes no further rounds; the node's staged messages
//     are still delivered.
//
// A StepProgram never blocks; composition replaces blocking. Chain,
// Sequence, Finish and Loop cover the compositions the paper's algorithms
// need: collective phases run one after another by handing the round
// mid-segment from a finishing machine to its successor — a finishing phase
// only reads its last inbox, a starting phase only sends, so both share one
// round segment, the way two consecutive "for each round: send; receive"
// loops of the paper's pseudocode share the round between the first's last
// receive and the second's first send.
//
// A composite must not keep a finished phase alive: what a phase owned (its
// dedup sets, delta buffers, token stores) is garbage the moment it
// finishes, and at n = 576 keeping it doubles the process's peak memory.
// Chain and Sequence drop their references as they go; a composite built on
// them passes a phase's result on through the few words the successor
// needs, never through a pointer to the finished machine that a later phase
// still holds (TestFinishedPhasesAreCollectable).
//
// # Sleeping nodes
//
// Every flood of the paper runs for its worst-case length because a node
// cannot see global quiescence; the simulator can. A machine may declare,
// with Env.SleepUntil, the first round in which it would do anything if no
// message reached it earlier. The round loop then skips the node with one
// compare per round until that round or until delivery puts a message in
// its inbox, whichever comes first, and when a round ends with every
// unfinished node asleep the loop fast-forwards: it jumps the round counter
// to the earliest wake-up round, still ticking Config.OnRound and checking
// MaxRounds and Ctx once per skipped round, and issuing no delivery (under
// EngineDist: no RouteRound) for them. Rounds, messages, bits and loads —
// every field of Metrics — are what they would be without sleeping.
//
// The declaration is a promise about the machine, not a request to the
// engine: in every call it declares unnecessary, the machine would have read
// an empty inbox, staged nothing and changed no state that a later call
// depends on. EngineLegacy ignores SleepUntil and makes those calls anyway,
// which is what keeps it an oracle for it (Loop checks the promise there).
// Only the declaration of a node's latest Step call counts, so a machine
// that steps several sub-machines side by side in one Step call must not
// let them sleep — one sub-machine's declaration would put the others to
// sleep with it. Sequential composition (Chain, Sequence) is safe: a
// finishing machine declares nothing.
//
// Loop.NextSend is the one place the repository's machines declare their
// schedule; a machine that does not opt in is called every round.

// StepProgram is a node's algorithm as an explicit resumable state machine:
// Step executes one round segment and reports whether the node is done. See
// the contract above.
type StepProgram interface {
	Step(env *Env) (done bool)
}

// StepFactory builds one node's StepProgram. It runs before the first
// round; construction may read env (ID, Rand, topology) and should only
// allocate and sample, not send: the first round segment is the machine's
// first Step call.
type StepFactory func(env *Env) StepProgram

// StepFunc adapts a plain function to the StepProgram interface.
type StepFunc func(env *Env) bool

// Step implements StepProgram.
func (f StepFunc) Step(env *Env) bool { return f(env) }

// Chain runs machines produced on demand, one after another: when the
// current machine finishes, next is called immediately — within the same
// round segment — to produce its successor, and a nil return finishes the
// chain. next sees every predecessor's result (via the closure) and may
// decide data-dependently, which is what the protocols' aggregate-and-
// continue loops need (e.g. routing's reply drain).
func Chain(next func(env *Env) StepProgram) StepProgram {
	return &chain{next: next}
}

type chain struct {
	next func(env *Env) StepProgram // nil once the chain is done
	cur  StepProgram
}

// Step implements StepProgram.
func (c *chain) Step(env *Env) bool {
	for c.next != nil {
		if c.cur == nil {
			if c.cur = c.next(env); c.cur == nil {
				// Whoever still points at the finished chain must not keep
				// alive, through next's closure, what its machines owned.
				c.next = nil
				break
			}
		}
		if !c.cur.Step(env) {
			return false
		}
		c.cur = nil
	}
	return true
}

// Sequence chains a fixed list of phases. Each phase is a thunk evaluated
// lazily when its turn comes — mid-segment, in the round segment its
// predecessor finished in — so per-node randomness and sends are consumed in
// identical order on every engine. A thunk may return nil to skip its
// phase. Sequence owns the phases slice and clears it as it goes.
func Sequence(phases ...func(env *Env) StepProgram) StepProgram {
	i := 0
	return Chain(func(env *Env) StepProgram {
		for i < len(phases) {
			p := phases[i](env)
			// A thunk's closure is the last path to the machines of the
			// phases before it: dropping it lets them be collected while
			// later phases still run.
			phases[i] = nil
			i++
			if p != nil {
				return p
			}
		}
		return nil
	})
}

// Finish wraps a zero-round computation as a Sequence/Chain phase: f runs
// mid-segment when the phase is reached (typically combining the results of
// the preceding machines) and consumes no rounds.
func Finish(f func(env *Env)) func(env *Env) StepProgram {
	return func(env *Env) StepProgram {
		f(env)
		return nil
	}
}

// Then runs m and, in the round segment m finishes in, f: how a caller
// reads the result fields of a machine it started.
func Then(m StepProgram, f func(env *Env)) StepProgram {
	return StepFunc(func(env *Env) bool {
		if !m.Step(env) {
			return false
		}
		f(env)
		return true
	})
}

// Loop is the paper's collective round pattern
//
//	for i := 0; i < rounds; i++ {
//		send(i)
//		in := <what the round delivers>
//		recv(in, i)
//	}
//
// which nearly every phase of the paper's protocols instantiates (floods,
// paced global sends, tree aggregations). One Step call runs Recv for the
// round that just ended (skipped before the first round), then Send for the
// next; the machine finishes — mid-segment, after its last Recv — once Send
// has run Rounds times. Either callback may be nil. A Loop is single-use.
//
// NextSend, if set, is the loop's schedule (see "Sleeping nodes" above):
// called after Send(i-1) with i >= 1, it returns the first iteration j >= i
// in which the loop does anything if no message arrives before — Send(j)
// stages a message, or Recv(j-1) acts on an empty inbox — and Rounds or
// more if there is none. The loop sleeps until iteration j; woken earlier by
// a message it runs Recv on it and Send for the iteration the round number
// says it is in, and asks again. Recv and Send are not called for the
// iterations slept through, so neither may count its calls. A nil Send
// implies "none" (the loop only listens); a non-nil Send without NextSend is
// called every iteration. On EngineLegacy, which calls the machine every
// round regardless, an iteration that was declared idle, found an empty
// inbox and staged a message anyway fails the run.
type Loop struct {
	Rounds   int
	Send     func(env *Env, i int)
	Recv     func(env *Env, in Inbox, i int)
	NextSend func(i int) int

	i     int // the iteration whose Send runs next
	start int // the round in which iteration 0 ran
	idle  int // the iteration NextSend declared the loop idle until
}

// Reactive is the NextSend of a delta flood: whatever its first Send put
// out, from then on it stages something only in answer to a message.
func Reactive(int) int { return math.MaxInt }

// Pending is the NextSend of a paced sender: while more reports queued
// work the next Send puts some of it out, and an empty queue refills only
// when a message arrives.
func Pending(more func() bool) func(int) int {
	return func(i int) int {
		if more() {
			return i
		}
		return math.MaxInt
	}
}

// Step implements StepProgram.
func (l *Loop) Step(env *Env) bool {
	in := env.Incoming()
	if l.i == 0 {
		l.start = env.Round()
	} else {
		l.i = env.Round() - l.start // past l.i only after a sleep
	}
	declaredIdle := l.i < l.idle && len(in.Local) == 0 && len(in.Global) == 0
	staged := env.staged
	if l.i > 0 && l.Recv != nil {
		l.Recv(env, in, l.i-1)
	}
	if l.i >= l.Rounds {
		return true
	}
	if l.Send != nil {
		l.Send(env, l.i)
	}
	if declaredIdle && env.staged != staged {
		env.violate(fmt.Errorf("sim: node %d sent in loop iteration %d after declaring idle until %d",
			env.id, l.i, l.idle))
	}
	l.i++
	switch {
	case l.Send == nil:
		l.idle = l.Rounds
	case l.NextSend != nil:
		l.idle = min(l.NextSend(l.i), l.Rounds)
	default:
		return false
	}
	if l.idle > l.i {
		env.SleepUntil(l.start + l.idle)
	}
	return false
}

// RunStep executes one StepProgram per node of g under cfg and returns the
// collected metrics. It returns an error if any node violated the model
// (illegal local destination, global send cap exceeded), if the run hit
// MaxRounds or was cancelled, or if a machine panicked. Results and Metrics
// are identical on every engine for a fixed seed.
func RunStep(g *graph.Graph, cfg Config, factory StepFactory) (Metrics, error) {
	switch cfg.Engine {
	case EngineStep, EngineDist:
	case EngineLegacy:
		return runLegacy(g, cfg, func(env *Env) { driveProgram(env, factory(env)) })
	default:
		return Metrics{}, fmt.Errorf("sim: unknown engine %v", cfg.Engine)
	}
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return Metrics{}, err
	}
	eng.distMode = cfg.Engine == EngineDist
	eng.initSharded()
	defer eng.stopSharded()
	if eng.distMode {
		if err := eng.startDist(); err != nil {
			return Metrics{}, err
		}
		defer eng.distRouter.Close()
	}
	eng.runStepLoop(factory)
	return eng.results()
}

// runStepLoop is the EngineStep main loop: construct the machines, then
// alternate round segments with sharded delivery until every node is done.
func (e *engine) runStepLoop(factory StepFactory) {
	e.stepInit(factory)
	for !e.stepAdvance(math.MaxInt) {
	}
}

// stepInit constructs the machines and arms the step loop's progress
// counter; it runs before round 0, exactly once per run.
func (e *engine) stepInit(factory StepFactory) {
	e.progs = make([]StepProgram, e.n)
	for i, env := range e.envs {
		e.progs[i] = e.buildProg(factory, env)
	}
	e.stepActive = e.n
}

// stepAdvance executes one iteration of the step loop — one round segment
// for every unfinished node that is awake, delivery, and, if that leaves
// every unfinished node asleep, a fast-forward to the earliest wake-up round
// (but not past round limit) — and reports whether the run is over (every
// node done, or aborted). It is the unit Stepper.Advance exposes;
// runStepLoop is nothing but stepInit plus stepAdvance-until-true.
func (e *engine) stepAdvance(limit int) bool {
	minWake := e.stepGeneration()
	e.stepActive -= e.deliverRound()
	e.roundBoundary()
	if e.stepActive > 0 && !e.woke {
		e.fastForward(min(minWake, limit))
	}
	return e.stepActive == 0 || e.aborted.Load()
}

// fastForward skips the rounds before round `to` in which, every unfinished
// node being asleep and nothing being in flight, no machine would be called
// and no message delivered: per skipped round it does what an idle
// stepAdvance would have left behind — the round counted, OnRound ticked,
// MaxRounds and Ctx checked — and nothing else. Both inbox parities are
// emptied first: delivery recycles only the parity of the round it
// delivers, so a sleeper woken an odd number of rounds later would
// otherwise read the buffer of the round before the skip.
func (e *engine) fastForward(to int) {
	if to <= e.generation {
		return
	}
	for _, env := range e.envs {
		for p := range env.inLocalBuf {
			env.inLocalBuf[p] = env.inLocalBuf[p][:0]
			env.inGlobalBuf[p] = env.inGlobalBuf[p][:0]
		}
	}
	for e.generation < to && !e.aborted.Load() {
		// The sleepers sat through the segment of round e.generation: it
		// counts toward Metrics.Rounds like a segment that was executed.
		e.metrics.Rounds = e.generation
		e.generation++
		e.roundBoundary()
	}
}

// Stepper exposes the EngineStep main loop one delivered round at a time,
// for harnesses that interleave measurement with the engine's progress —
// the allocation-regression tests advance through a run's warmup and then
// assert that further rounds allocate nothing. Only EngineStep is
// supported: EngineLegacy has no externally steppable loop.
//
// A Stepper must be finished exactly once (Finish stops the worker pool);
// Advance after the run completed is a no-op.
type Stepper struct {
	eng  *engine
	done bool
}

// NewStepper builds the engine and the per-node machines (round 0 has not
// run yet) and returns the paused run.
func NewStepper(g *graph.Graph, cfg Config, factory StepFactory) (*Stepper, error) {
	if cfg.Engine != EngineStep {
		return nil, fmt.Errorf("sim: Stepper requires EngineStep, got %v", cfg.Engine)
	}
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return nil, err
	}
	eng.initSharded()
	eng.stepInit(factory)
	return &Stepper{eng: eng}, nil
}

// Advance runs up to `rounds` rounds — executed or fast-forwarded over, a
// round is a round — and reports whether the run completed (all nodes done
// or the run aborted).
func (s *Stepper) Advance(rounds int) bool {
	for to := s.eng.generation + rounds; !s.done && s.eng.generation < to; {
		s.done = s.eng.stepAdvance(to)
	}
	return s.done
}

// Finish drives the run to completion, stops the worker pool, and returns
// the collected metrics with the engines' shared error contract.
func (s *Stepper) Finish() (Metrics, error) {
	for !s.done {
		s.done = s.eng.stepAdvance(math.MaxInt)
	}
	s.eng.stopSharded()
	return s.eng.results()
}

// buildProg constructs one node's machine with the engines' shared panic
// contract: a panicking factory fails the run and finishes the node.
func (e *engine) buildProg(factory StepFactory, env *Env) (sp StepProgram) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				e.fail(fmt.Errorf("sim: node %d panicked: %v", env.id, r))
			}
			env.finished = true
		}
	}()
	return factory(env)
}

// stepGeneration advances every unfinished node that is awake by one round
// segment, shard-parallel when the worker pool exists, and returns the
// earliest round in which any unfinished node needs its next call (at most
// the next round unless every one of them sleeps; MaxInt if none is left).
func (e *engine) stepGeneration() (minWake int) {
	if e.nShards == 1 {
		return e.stepShard(0)
	}
	for k := 0; k < e.nShards; k++ {
		e.workCh <- shardTask{k: k, step: true}
	}
	minWake = math.MaxInt
	for k := 0; k < e.nShards; k++ {
		minWake = min(minWake, (<-e.resCh).minWake)
	}
	return minWake
}

// stepShard runs one round segment for the nodes of shard k that are awake:
// install each node's inbox for the generation being executed and call its
// machine. It returns the earliest round any unfinished one of them needs
// its next call in (its SleepUntil declaration, or 0 for "the next round").
// Workers touch disjoint node state, and sends stage into per-sender
// buckets, so concurrent shards need no locks (the same disjointness
// argument as runShard).
func (e *engine) stepShard(k int) (minWake int) {
	lo := k * e.shardSize
	hi := min(lo+e.shardSize, e.n)
	gen := e.generation
	p := gen & 1
	minWake = math.MaxInt
	for v := lo; v < hi; v++ {
		env := e.envs[v]
		if env.finished {
			continue
		}
		if env.wake <= gen {
			env.wake = 0
			env.round = gen
			if gen > 0 {
				env.curInbox = Inbox{Local: env.inLocalBuf[p], Global: env.inGlobalBuf[p]}
			} else {
				env.curInbox = Inbox{}
			}
			e.stepNode(env, v)
			if env.finished {
				continue
			}
		}
		minWake = min(minWake, env.wake)
	}
	return minWake
}

// stepNode runs one machine call under the engines' shared panic contract.
// A finished node's machine is dropped at once: the run may go on for long
// after an early finisher, and nothing reads its machine again.
func (e *engine) stepNode(env *Env, v int) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				e.fail(fmt.Errorf("sim: node %d panicked: %v", v, r))
			}
			env.finished = true
		}
		if env.finished {
			e.progs[v] = nil
		}
	}()
	env.finished = e.progs[v].Step(env)
}
