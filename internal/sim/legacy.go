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
// round, whatever the machine declared about sleeping. The package's own
// tests also hand it hand-written blocking programs: they are the oracle for
// what Loop and Sequence mean.

// program is a node's code in blocking form: between two env.barrier calls
// lies one round segment.
type program func(env *Env)

// driveProgram is a machine's blocking form: install the inbox, run one
// round segment, take the barrier.
func driveProgram(env *Env, sp StepProgram) {
	env.curInbox = Inbox{}
	for !sp.Step(env) {
		env.curInbox = env.barrier()
	}
}

// runLegacy executes prog on every node of g under cfg and returns the
// collected metrics, with RunStep's error contract.
func runLegacy(g *graph.Graph, cfg Config, prog program) (Metrics, error) {
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return Metrics{}, err
	}
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
// returns the inbox of messages delivered for the next round; the slices
// are the caller's until its next barrier.
func (env *Env) barrier() Inbox {
	if env.eng.stepMode {
		panic(fmt.Errorf("sim: node %d took the legacy barrier from a StepProgram; use Incoming", env.id))
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
	in := Inbox{Local: env.inLocal, Global: env.inGlobal}
	env.inLocal = nil
	env.inGlobal = nil
	return in
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
			e.metrics.LocalBits += out.words * int64(e.logN)
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

	for _, c := range recvCount {
		if c > e.metrics.MaxGlobalRecv {
			e.metrics.MaxGlobalRecv = c
		}
	}
	return finished
}
