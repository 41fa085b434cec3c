package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// This file implements EngineStep ("sim v3"), the goroutine-free round
// engine, and the StepProgram execution model it runs.
//
// The goroutine engines (legacy, sharded) execute each node's Program as a
// blocking goroutine and synchronize them at a barrier inside Env.Step.
// That is maximally convenient to program against, but it puts two
// scheduler wake/park cycles on every (node, round) pair: at n = 16384 the
// barrier alone costs ~0.4µs/node/round and dominates APSP wall clock.
//
// EngineStep removes the floor by inverting control: each node is an
// explicit resumable state machine (StepProgram) and the engine's round
// loop IS the barrier —
//
//	for every round:
//	    for every unfinished node (in shard-parallel batches):
//	        install the node's inbox; run its StepProgram.Step
//	    deliver staged messages (the sharded engine's delivery path)
//
// No node blocks, so no node ever parks or wakes: a round costs one
// function call per node plus delivery.
//
// # The StepProgram contract
//
// One Step call executes exactly the code a Program would run between two
// consecutive Env.Step calls (one "round segment"):
//
//   - Read the round's inbox with Env.Incoming (empty on the first call).
//     The slices are owned by the node until its next round segment and
//     must not be retained, exactly like Env.Step's return value.
//   - Stage sends with SendLocal / BroadcastLocal / SendGlobal as usual.
//   - Return false to take the round barrier, true when the node is done.
//     Returning true consumes no further rounds: it corresponds to a
//     Program returning, and like a returning Program the node's staged
//     messages are still delivered.
//
// A StepProgram must never call Env.Step (the engine panics if it does) and
// never blocks; composition replaces blocking. Chain, Sequence, Finish and
// Loop cover the compositions the paper's algorithms need: collective
// phases run one after another by handing the round mid-segment from a
// finishing machine to its successor, which reproduces the goroutine
// programs' behavior exactly — a finishing phase only reads its last inbox,
// a starting phase only sends, so both share one round segment the same way
// sequential calls share a round between two Env.Step calls.
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
// depends on. The goroutine engines ignore SleepUntil and make those calls
// anyway, which is what keeps them an oracle for it (Loop checks the
// promise there). Only the declaration of a node's latest Step call counts,
// so a machine that steps several sub-machines side by side in one Step
// call must not let them sleep — one sub-machine's declaration would put
// the others to sleep with it. Sequential composition (Chain, Sequence) is
// safe: a finishing machine declares nothing.
//
// Loop.NextSend is the one place the repository's machines declare their
// schedule; a machine that does not opt in is called every round.
//
// # Compatibility across engines
//
// Both program models run on all three engines:
//
//   - A Program runs on EngineStep through a goroutine-backed adapter
//     (AdaptProgram): the program keeps its blocking style and yields to
//     the engine loop at every Env.Step. This keeps every algorithm working
//     on every engine, at roughly the goroutine engines' per-round cost.
//   - A StepProgram runs on the goroutine engines through DriveProgram,
//     which replays the engine loop's install-inbox/step cycle inside the
//     node's goroutine.
//
// Either way, for a fixed seed all three engines produce byte-identical
// results and Metrics; the differential tests (engines_test.go here and at
// the repository root) enforce this across the execution-model matrix.

// StepProgram is a node's algorithm as an explicit resumable state machine:
// Step executes one round segment and reports whether the node is done. See
// the contract above.
type StepProgram interface {
	Step(env *Env) (done bool)
}

// StepFactory builds one node's StepProgram. It runs before the first
// round; construction may read env (ID, Rand, topology) and corresponds to
// a Program's code before its first Env.Step... which is exactly where the
// machine's first Step call begins, so factories should only allocate and
// sample, not send. (Sends staged during construction would still be
// delivered in round 1, but keeping them in Step keeps the two execution
// models aligned line for line.)
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
	next func(env *Env) StepProgram
	cur  StepProgram
	done bool
}

// Step implements StepProgram.
func (c *chain) Step(env *Env) bool {
	if c.done {
		return true
	}
	for {
		if c.cur == nil {
			if c.cur = c.next(env); c.cur == nil {
				c.done = true
				return true
			}
		}
		if !c.cur.Step(env) {
			return false
		}
		c.cur = nil
	}
}

// Sequence chains a fixed list of phases. Each phase is a thunk evaluated
// lazily when its turn comes — mid-segment, exactly where the goroutine
// program would call the corresponding collective function — so per-node
// randomness and sends are consumed in identical order on every engine. A
// thunk may return nil to skip its phase.
func Sequence(phases ...func(env *Env) StepProgram) StepProgram {
	i := 0
	return Chain(func(env *Env) StepProgram {
		for i < len(phases) {
			p := phases[i](env)
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

// Loop is the step form of the canonical collective round pattern
//
//	for i := 0; i < rounds; i++ {
//		send(i)
//		in := env.Step()
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
// called every iteration. On engines that call the machine every round
// regardless, an iteration that was declared idle, found an empty inbox and
// staged a message anyway fails the run.
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

// DriveProgram runs a StepProgram to completion on a goroutine engine by
// replaying the step engine's install-inbox/step cycle inside the node's
// Program goroutine. It is how step-native algorithms stay runnable (and
// differentially testable) on EngineLegacy and EngineSharded.
func DriveProgram(env *Env, sp StepProgram) {
	env.curInbox = Inbox{}
	for !sp.Step(env) {
		env.curInbox = env.Step()
	}
}

// AsProgram converts a StepFactory into a Program for the goroutine
// engines.
func AsProgram(factory StepFactory) Program {
	return func(env *Env) {
		DriveProgram(env, factory(env))
	}
}

// adapterBuilds counts programAdapter constructions — legacy Programs
// falling back to the goroutine-backed compatibility path under the step
// engine. The facade's step-nativeness test reads it to assert that no
// public algorithm silently regresses onto the adapter.
var adapterBuilds atomic.Int64

// AdapterBuilds reports how many legacy Programs have been wrapped for the
// step engine since process start. A step-native pipeline run on
// EngineStep must not advance it.
func AdapterBuilds() int64 { return adapterBuilds.Load() }

// AdaptProgram converts a legacy Program into a StepFactory backed by one
// goroutine per node: the program keeps its blocking style, parking in
// Env.Step until the engine loop's next round. This is the compatibility
// path that keeps un-ported algorithms running on EngineStep — correct and
// byte-identical, but it reintroduces the per-node wake/park cost the
// step-native ports avoid. Top-level adapted programs are driven by a
// per-shard multiplexer (see adapterGroup); adapters nested inside
// composite machines fall back to the per-node channel protocol.
func AdaptProgram(program Program) StepFactory {
	return func(env *Env) StepProgram {
		adapterBuilds.Add(1)
		return &programAdapter{
			program: program,
			resume:  make(chan struct{}, 1),
			yield:   make(chan bool, 1),
		}
	}
}

// programAdapter runs a blocking Program under the step engine. In the
// per-node protocol (adapters nested inside composite machines) the
// engine's Step call and the program strictly alternate over the
// resume/yield channels, both buffered so neither side can block the other
// during shutdown. Top-level adapters are instead driven collectively by
// their shard's adapterGroup: group is set at registration and switches
// await/run to the broadcast-wake protocol.
type programAdapter struct {
	program  Program
	started  bool
	returned bool // program returned; its goroutine is gone (per-node protocol)
	resume   chan struct{}
	yield    chan bool // false: round segment done; true: program returned
	group    *adapterGroup
}

// adapterGroup drives all top-level adapted Programs of one shard with one
// broadcast wake per round instead of two channel handoffs per node: the
// shard worker swaps-and-closes the group's release channel, waking every
// parked program at once, and the last member to finish its round segment
// signals done. The members' round segments therefore run concurrently —
// exactly as the goroutine engines run all programs concurrently, so any
// program correct there is correct here — while the shard worker steps its
// native machines inline and then waits for the group.
type adapterGroup struct {
	members []*Env // envs of this shard's adapted programs
	started bool
	release atomic.Value  // chan struct{}; closed to wake the group
	pending atomic.Int32  // members still to arrive this round
	done    chan struct{} // cap 1; signaled by the last arrival
}

func newAdapterGroup() *adapterGroup {
	g := &adapterGroup{done: make(chan struct{}, 1)}
	g.release.Store(make(chan struct{}))
	return g
}

// arrive reports one member's round segment finished (or its program
// returned, or unwound after an abort); the last arrival wakes the engine.
func (g *adapterGroup) arrive() {
	if g.pending.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// wake releases every member parked in await. The members loaded the old
// release channel before arriving last round, so closing it wakes exactly
// the parked generation; the swap happens before the close, so a waking
// member always parks on the new channel next.
func (g *adapterGroup) wake() {
	old := g.release.Load().(chan struct{})
	g.release.Store(make(chan struct{}))
	close(old)
}

// initAdapterGroups partitions top-level adapted Programs into per-shard
// groups. Runs once, after the machines are built and before round 0.
func (e *engine) initAdapterGroups() {
	for i, sp := range e.progs {
		a, ok := sp.(*programAdapter)
		if !ok || e.envs[i].finished {
			continue
		}
		if e.adGroups == nil {
			e.adGroups = make([]*adapterGroup, e.nShards)
		}
		k := e.shardOf(i)
		g := e.adGroups[k]
		if g == nil {
			g = newAdapterGroup()
			e.adGroups[k] = g
		}
		env := e.envs[i]
		a.group = g
		env.adapter = a
		g.members = append(g.members, env)
	}
}

// Step implements StepProgram: resume the program goroutine (starting it on
// the first call) and wait until it parks in Env.Step or returns.
func (a *programAdapter) Step(env *Env) bool {
	if !a.started {
		a.started = true
		env.adapter = a
		go a.run(env)
	} else {
		a.resume <- struct{}{}
	}
	done := <-a.yield
	if done {
		a.returned = true
	}
	return done
}

// run executes the program on its own goroutine, mirroring the goroutine
// engines' panic handling. Group-driven members report completion to their
// group; per-node adapters yield to the engine's Step call.
func (a *programAdapter) run(env *Env) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				env.eng.fail(fmt.Errorf("sim: node %d panicked: %v", env.id, r))
			}
		}
		if a.group != nil {
			env.finished = true
			a.group.arrive()
			return
		}
		a.yield <- true
	}()
	a.program(env)
}

// await is the Env.Step implementation for adapted programs: yield the
// round segment to the engine loop and park until the next round's inbox is
// installed. Group-driven members arrive at the group barrier and park on
// the shared release channel (loaded before arriving, exactly like the
// goroutine engines' barrier); per-node adapters use the resume/yield
// protocol.
func (a *programAdapter) await(env *Env) Inbox {
	if env.eng.aborted.Load() {
		panic(errAbort)
	}
	if g := a.group; g != nil {
		rel := g.release.Load().(chan struct{})
		g.arrive()
		<-rel
		if env.eng.aborted.Load() {
			panic(errAbort)
		}
		return env.curInbox
	}
	a.yield <- false
	<-a.resume
	if env.eng.aborted.Load() {
		panic(errAbort)
	}
	return env.curInbox
}

// RunStep executes one StepProgram per node of g under cfg and returns the
// collected metrics; it is to StepPrograms what Run is to Programs, with
// the same error contract. Under EngineStep the machines run natively on
// the goroutine-free loop; under the goroutine engines they run through
// DriveProgram, so callers can hold one code path and still select any
// engine.
func RunStep(g *graph.Graph, cfg Config, factory StepFactory) (Metrics, error) {
	if cfg.Engine != EngineStep && cfg.Engine != EngineDist {
		return Run(g, cfg, AsProgram(factory))
	}
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return Metrics{}, err
	}
	eng.stepMode = true
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
	if eng.distMode {
		if fl, ok := eng.distRouter.(DistFlusher); ok {
			if err := fl.Flush(); err != nil {
				eng.fail(err)
			}
		}
	}
	return eng.results()
}

// runStepLoop is the EngineStep main loop: construct the machines, then
// alternate round segments with sharded delivery until every node is done.
// Unlike coordinate() there is nothing to wake or park — the loop iterates.
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
	e.initAdapterGroups()
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
	if e.aborted.Load() {
		e.releaseAdapters()
		return true
	}
	return e.stepActive == 0
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
// supported: the goroutine engines have no externally steppable loop.
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
	eng.stepMode = true
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
// With StepBatch resolved and no adapter groups in play, the workers instead
// drain the node range in work-stealing batches, which rebalances rounds
// whose active nodes cluster inside few shards. (Adapter groups pin their
// members to the shard's wake protocol, so batching is skipped when any
// exist.)
func (e *engine) stepGeneration() (minWake int) {
	if e.nShards == 1 {
		return e.stepShard(0)
	}
	task := shardTask{step: true, batch: e.stepBatch > 0 && e.adGroups == nil}
	if task.batch {
		e.stepCursor.Store(0)
	}
	for k := 0; k < e.nShards; k++ {
		task.k = k
		e.workCh <- task
	}
	minWake = math.MaxInt
	for k := 0; k < e.nShards; k++ {
		minWake = min(minWake, (<-e.resCh).minWake)
	}
	return minWake
}

// stepBatches is one worker's share of a batched step generation: claim
// stepBatch-wide node ranges off the shared cursor until the range is
// drained. Node state and staging buckets are per-sender, so any worker
// may step any node; delivery stays shard-partitioned.
func (e *engine) stepBatches() (minWake int) {
	gen := e.generation
	minWake = math.MaxInt
	for {
		hi := int(e.stepCursor.Add(int64(e.stepBatch)))
		lo := hi - e.stepBatch
		if lo >= e.n {
			return minWake
		}
		if hi > e.n {
			hi = e.n
		}
		minWake = min(minWake, e.stepRange(lo, hi, gen))
	}
}

// stepShard runs one round segment for the nodes of shard k: install each
// node's inbox for the generation being executed and call its machine.
// Workers touch disjoint node state, and sends stage into per-sender
// buckets, so concurrent shards need no locks (the same disjointness
// argument as runShard). The shard's adapted programs, if any, are woken
// first and run concurrently while the native machines are stepped inline;
// the worker then waits for the group before returning.
func (e *engine) stepShard(k int) (minWake int) {
	lo := k * e.shardSize
	hi := lo + e.shardSize
	if hi > e.n {
		hi = e.n
	}
	gen := e.generation // deliveries completed so far
	p := gen & 1
	var g *adapterGroup
	if e.adGroups != nil {
		g = e.adGroups[k]
	}
	if g != nil {
		active := int32(0)
		for _, env := range g.members {
			if env.finished {
				continue
			}
			env.round = gen
			if gen > 0 {
				env.curInbox = Inbox{Local: env.inLocalBuf[p], Global: env.inGlobalBuf[p]}
			} else {
				env.curInbox = Inbox{}
			}
			active++
		}
		if active == 0 {
			g = nil
		} else {
			g.pending.Store(active)
			if !g.started {
				g.started = true
				for _, env := range g.members {
					go env.adapter.run(env)
				}
			} else {
				g.wake()
			}
		}
	}
	minWake = e.stepRange(lo, hi, gen)
	if g != nil {
		<-g.done
		return 0 // adapted programs never sleep
	}
	return minWake
}

// stepRange advances the native machines of nodes [lo, hi) that are awake
// by one round segment and returns the earliest round any unfinished one of
// them needs its next call in (its SleepUntil declaration, or 0 for "the
// next round"); it is the inner loop shared by whole-shard and batched
// stepping.
func (e *engine) stepRange(lo, hi, gen int) (minWake int) {
	p := gen & 1
	minWake = math.MaxInt
	for v := lo; v < hi; v++ {
		env := e.envs[v]
		// Group members are skipped before their finished flag is read:
		// their run goroutines may still be writing it this round.
		if env.adapter != nil && env.adapter.group != nil {
			continue
		}
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
func (e *engine) stepNode(env *Env, v int) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				e.fail(fmt.Errorf("sim: node %d panicked: %v", v, r))
			}
			env.finished = true
		}
	}()
	if e.progs[v].Step(env) {
		env.finished = true
	}
}

// releaseAdapters unblocks adapted-program goroutines parked in Env.Step
// after an abort, so they observe the abort flag and unwind. Native
// machines hold no goroutines and need no cleanup.
func (e *engine) releaseAdapters() {
	// Group-driven adapters: wake each group once; the parked members see
	// the abort flag, unwind, and arrive through run's deferred handler.
	for _, g := range e.adGroups {
		if g == nil || !g.started {
			continue
		}
		active := int32(0)
		for _, env := range g.members {
			if !env.finished {
				active++
			}
		}
		if active == 0 {
			continue
		}
		g.pending.Store(active)
		g.wake()
		<-g.done
	}
	// Per-node adapters (nested inside composite machines): reachable only
	// through env.adapter, which tracks the node's most recent adapter —
	// earlier ones in a sequence have necessarily returned. A returned
	// adapter's goroutine is gone; resuming it would block forever.
	for _, env := range e.envs {
		a := env.adapter
		if a == nil || a.group != nil || !a.started || a.returned || env.finished {
			continue
		}
		a.resume <- struct{}{}
		<-a.yield
		env.finished = true
	}
}
