package sim

import (
	"context"
	"fmt"
	"sync"
)

// This file is the engine side of EngineDist: the round loop stays the
// step engine's (node machines step in the coordinator process, local
// messages — arbitrary Go values — deliver in-process), but every
// global-mode message makes a real trip through its destination shard's
// worker process. runShard is the round boundary of both engines: it counts
// every Metrics field alike, and under EngineDist it stages each shard's
// global messages into a request batch instead of the inboxes. routeRound
// hands the batches to a DistRouter, whose workers sort each one into
// delivery order (per destination: ascending sender ID, then send order —
// the engine contract) and nothing else, and folds the returned streams
// into the same inbox buffers the step engine fills. Byte-identity with
// EngineLegacy/EngineStep follows because the sorted stream the worker
// returns is exactly the order runShard delivers in.
//
// The router implementation lives in repro/internal/dist and registers
// itself here via RegisterDistRouter, keeping this package free of any
// transport/process dependency (and of an import cycle: dist imports sim).

// DefaultDistWorkers is the worker-process count when Config.DistWorkers
// is unset.
const DefaultDistWorkers = 2

// DistRouterConfig is everything a DistRouter needs to spawn and
// configure the worker set for one run.
type DistRouterConfig struct {
	N         int
	LogN      int // ceil(log2 N); nothing reads it any more
	Workers   int // == the engine's shard count
	ShardSize int
	Opts      any // Config.DistOpts, passed through opaquely
	// Ctx is Config.Ctx (nil: context.Background()). The router ends every
	// wait inside a round trip by its deadline and abandons a round trip
	// once it is done, with an error wrapping ctx.Err().
	Ctx context.Context
}

// DistRoundStats is what the router reports of one round besides the
// streams: the number of messages they carry, across shards.
type DistRoundStats struct {
	GlobalMsgs int64
}

// DistRouter routes one round's staged global messages through the worker
// set. RouteRound takes the per-shard request batches (outgoing[k] holds
// every message destined for shard k, in staging order: ascending sender
// ID, then send order) and returns the per-shard delivery streams sorted
// by destination, with their message count. The engine routes only rounds
// that stage at least one global message, in ascending round order. The
// router owns retries, respawns, and replay; an error means a shard could
// not be served within the robustness budget and aborts the run. Close
// releases the workers; it must be idempotent.
type DistRouter interface {
	RouteRound(round int, outgoing [][]GlobalMsg) ([][]GlobalMsg, DistRoundStats, error)
	Close() error
}

var (
	distFactoryMu sync.RWMutex
	distFactory   func(DistRouterConfig) (DistRouter, error)
)

// RegisterDistRouter installs the DistRouter factory EngineDist uses.
// Importing repro/internal/dist registers the process-spawning router;
// tests may install in-process fakes.
func RegisterDistRouter(f func(DistRouterConfig) (DistRouter, error)) {
	distFactoryMu.Lock()
	defer distFactoryMu.Unlock()
	distFactory = f
}

// startDist builds the router for this run. It requires initSharded to
// have sized the shards already.
func (e *engine) startDist() error {
	distFactoryMu.RLock()
	f := distFactory
	distFactoryMu.RUnlock()
	if f == nil {
		return fmt.Errorf("sim: EngineDist requires a registered router (import repro/internal/dist)")
	}
	r, err := f(DistRouterConfig{
		N:         e.n,
		Workers:   e.nShards,
		ShardSize: e.shardSize,
		Opts:      e.cfg.DistOpts,
		Ctx:       e.cfg.Ctx,
	})
	if err != nil {
		return fmt.Errorf("sim: starting dist router: %w", err)
	}
	e.distRouter = r
	e.distReqs = make([][]GlobalMsg, e.nShards)
	return nil
}

// deliverRound is the round boundary used by the step loop: sharded
// delivery, plus the routed delivery of the global messages under
// EngineDist.
func (e *engine) deliverRound() int {
	if !e.distMode {
		return e.deliverSharded()
	}
	for k := range e.distReqs {
		e.distReqs[k] = e.distReqs[k][:0]
	}
	finished := e.deliverSharded()
	e.routeRound()
	return finished
}

// routeRound routes the request batches runShard staged and appends the
// sorted streams to the inboxes, checking that every message lands in its
// own shard and that each shard returns as many messages as it was sent. A
// round that stages no global message has nothing for a worker to sort, so
// it is not routed — the rule fastForward applies to rounds in which every
// node sleeps.
func (e *engine) routeRound() {
	routed := false
	for _, req := range e.distReqs {
		if len(req) > 0 {
			routed = true
			break
		}
	}
	if !routed {
		return
	}
	streams, _, err := e.distRouter.RouteRound(e.generation, e.distReqs)
	if err == nil && len(streams) != e.nShards {
		err = fmt.Errorf("%d streams for %d shards", len(streams), e.nShards)
	}
	if err != nil {
		e.fail(fmt.Errorf("sim: dist delivery failed in generation %d: %w", e.generation, err))
		return
	}
	gen := e.generation & 1
	for k, stream := range streams {
		if len(stream) != len(e.distReqs[k]) {
			e.fail(fmt.Errorf("sim: dist router returned %d messages for shard %d, sent %d",
				len(stream), k, len(e.distReqs[k])))
			return
		}
		lo := k * e.shardSize
		hi := min(lo+e.shardSize, e.n)
		for _, m := range stream {
			if m.Dst < lo || m.Dst >= hi {
				e.fail(fmt.Errorf("sim: dist router returned message for node %d outside shard %d [%d,%d)",
					m.Dst, k, lo, hi))
				return
			}
			env := e.envs[m.Dst]
			env.inGlobalBuf[gen] = append(env.inGlobalBuf[gen], m)
			if env.wake != 0 {
				env.wake, e.woke = 0, true
			}
		}
	}
}
