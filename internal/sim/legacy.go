package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is EngineLegacy, the reference implementation of the
// round-barrier contract, and the only place a node's code blocks: every
// node is a goroutine running a program, a program ends its round in
// env.barrier, and a single coordinator delivers once all have arrived.
// RunStep reaches it with driveProgram as the program, so the legacy engine
// executes the same machines as the step engine — one call per node per
// round, whatever the machine declared about sleeping, and poisons every
// inbox at the barrier that ends its round, so a machine that reads an
// inbox after its Step call diverges here. The package's own tests also hand
// it hand-written blocking programs: they are the oracle for what Loop and
// Sequence mean.

// program is a node's code in blocking form: between two env.barrier calls
// lies one round segment.
type program func(env *Env)

// driveProgram is a machine's blocking form: run one round segment, take
// the barrier (which installs the next inbox).
func driveProgram(env *Env, sp StepProgram) {
	for !sp.Step(env) {
		env.barrier()
	}
}

// runLegacy executes prog on every node of g under cfg and returns the
// collected metrics, with RunStep's error contract.
func runLegacy(g *graph.Graph, cfg Config, prog program) (Metrics, error) {
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return Metrics{}, err
	}
	eng.initStaging(1, true)
	var wg sync.WaitGroup
	wg.Add(eng.n)
	for _, env := range eng.envs {
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
			prog(env)
		}()
	}
	eng.coordinate()
	wg.Wait()
	return eng.results()
}

// barrier ends the node's round: all staged messages are handed to the
// engine, and the call blocks until every node has ended the round. It
// installs and returns the inbox of messages delivered for the next round;
// the slices are the caller's until its next barrier, which poisons them
// (From = -1 and a nil Payload, Src = Dst = -1): they were allocated for
// this node alone, and a machine that still reads them diverges from the
// step loop, which refills its inboxes in place.
func (env *Env) barrier() Inbox {
	if env.eng.progs != nil {
		panic(fmt.Errorf("sim: node %d took the legacy barrier from a StepProgram; use Incoming", env.id))
	}
	for i := range env.curInbox.Local {
		env.curInbox.Local[i] = LocalMsg{From: -1}
	}
	for i := range env.curInbox.Global {
		env.curInbox.Global[i].Src, env.curInbox.Global[i].Dst = -1, -1
	}
	if env.eng.aborted.Load() {
		panic(errAbort)
	}
	rel := env.eng.currentRelease()
	env.arrive()
	<-rel
	if env.eng.aborted.Load() {
		panic(errAbort)
	}
	env.round++
	env.curInbox = Inbox{Local: env.inLocal, Global: env.inGlobal}
	env.inLocal, env.inGlobal = nil, nil
	return env.curInbox
}

// arrive signals the barrier; the last arriver wakes the coordinator.
func (env *Env) arrive() {
	if atomic.AddInt32(&env.eng.remaining, -1) == 0 {
		env.eng.ready <- struct{}{}
	}
}

// coordinate runs the barrier loop: wait for all active nodes, deliver
// messages, advance the round.
func (e *engine) coordinate() {
	active := e.n
	for {
		<-e.ready
		active -= e.deliver()
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
// every node blocked in barrier. A node always loads its release channel
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

// deliver drains every sender's bucket (legacy runs one shard and stages per
// node), in node-ID order, into the destination inboxes, updates metrics, and returns
// how many nodes finished during this round. It shares nothing with the step
// loop's runShard but the staging: it is the reference delivery. A message
// for a finished node is counted like any other but not kept: no barrier
// would ever hand it off.
func (e *engine) deliver() int {
	e.generation++
	finished := 0
	recvCount := make([]int, e.n)

	for _, env := range e.envs {
		if env.globalSentThisRound > e.metrics.MaxGlobalSend {
			e.metrics.MaxGlobalSend = env.globalSentThisRound
		}
		env.globalSentThisRound = 0

		b := &env.out[0]
		for _, out := range b.local {
			if dst := e.envs[out.to]; !dst.finished {
				dst.inLocal = append(dst.inLocal, LocalMsg{From: env.id, Payload: out.payload})
			}
			e.metrics.LocalMsgs++
			e.metrics.LocalBits += out.words * int64(e.logN)
		}
		b.local = b.local[:0]

		for _, m := range b.global {
			if dst := e.envs[m.Dst]; !dst.finished {
				dst.inGlobal = append(dst.inGlobal, m)
			}
			recvCount[m.Dst]++
			e.metrics.GlobalMsgs++
			e.metrics.GlobalBits += e.msgBits
			if e.cfg.Cut != nil && e.cfg.Cut[m.Src] != e.cfg.Cut[m.Dst] {
				e.metrics.CutGlobalMsgs++
				e.metrics.CutGlobalBits += e.msgBits
			}
		}
		b.global = b.global[:0]

		if env.finished && !env.countedFinished {
			env.countedFinished = true
			finished++
		}
	}

	for _, c := range recvCount {
		if c > e.metrics.MaxGlobalRecv {
			e.metrics.MaxGlobalRecv = c
		}
	}
	return finished
}
