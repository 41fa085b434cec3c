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
// worker process. The coordinator hands each round's per-shard request
// batches to a DistRouter; the router's workers sort each batch into
// delivery order (per destination: ascending sender ID, then send order —
// the engine contract) and compute the shard's receive accounting, and
// the coordinator folds the returned streams back into the same inbox
// buffers and Metrics fields the in-process engines use. Byte-identity
// with EngineLegacy/EngineStep follows because the sorted stream the worker
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
	N                int
	LogN             int
	Workers          int // == the engine's shard count
	ShardSize        int
	StrictRecvFactor int
	Cut              []bool
	Opts             any // Config.DistOpts, passed through opaquely
	// Ctx is Config.Ctx (nil: context.Background()). The router ends every
	// wait inside a round trip by its deadline and abandons a round trip
	// once it is done, with an error wrapping ctx.Err().
	Ctx context.Context
}

// DistRoundStats is the merged per-round accounting the router returns:
// totals across shards, maxima over destinations, and the lowest
// destination that exceeded the strict receive cap (ViolDst < 0: none).
type DistRoundStats struct {
	GlobalMsgs int64
	CutMsgs    int64
	MaxRecv    int
	ViolDst    int
	ViolCount  int
}

// DistRouter routes one round's staged global messages through the worker
// set. RouteRound takes the per-shard request batches (outgoing[k] holds
// every message destined for shard k, in staging order: ascending sender
// ID, then send order) and returns the per-shard delivery streams sorted
// by destination. The engine routes only rounds that stage at least one
// global message, in ascending round order. The router owns retries,
// respawns, and replay; an error
// means a shard could not be served within the robustness budget and
// aborts the run. Close releases the workers; it must be idempotent.
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
		N:                e.n,
		LogN:             e.logN,
		Workers:          e.nShards,
		ShardSize:        e.shardSize,
		StrictRecvFactor: e.cfg.StrictRecvFactor,
		Cut:              e.cfg.Cut,
		Opts:             e.cfg.DistOpts,
		Ctx:              e.cfg.Ctx,
	})
	if err != nil {
		return fmt.Errorf("sim: starting dist router: %w", err)
	}
	e.distRouter = r
	e.distReqs = make([][]GlobalMsg, e.nShards)
	return nil
}

// deliverRound is the round boundary used by the step loop: in-process
// sharded delivery normally, routed delivery under EngineDist.
func (e *engine) deliverRound() int {
	if e.distMode {
		return e.deliverDist()
	}
	return e.deliverSharded()
}

// deliverDist is the EngineDist round boundary. It mirrors
// deliverSharded/runShard exactly — same inbox buffers, same Metrics
// accounting, same failure messages — except that global messages travel
// through the router and come back in worker-sorted delivery order.
func (e *engine) deliverDist() int {
	e.generation++
	gen := e.generation & 1
	finished := 0
	maxSend := 0
	e.woke = false

	// Pass 1 (runShard's reset loop, over all nodes at once): recycle the
	// inbox buffers of the generation about to be delivered, count newly
	// finished nodes, and fold the per-node send loads.
	for _, env := range e.envs {
		if len(env.inLocalBuf[gen]) > 0 {
			env.inLocalBuf[gen] = env.inLocalBuf[gen][:0]
		}
		if len(env.inGlobalBuf[gen]) > 0 {
			env.inGlobalBuf[gen] = env.inGlobalBuf[gen][:0]
		}
		if env.finished && !env.countedFinished {
			env.countedFinished = true
			finished++
		}
		if env.globalSentThisRound > 0 {
			if env.globalSentThisRound > maxSend {
				maxSend = env.globalSentThisRound
			}
			env.globalSentThisRound = 0
		}
	}
	if maxSend > e.metrics.MaxGlobalSend {
		e.metrics.MaxGlobalSend = maxSend
	}

	// Pass 2 (runShard's drain loop): deliver local messages in-process and
	// collect each shard's global request batch in staging order.
	for k := 0; k < e.nShards; k++ {
		e.distReqs[k] = e.distReqs[k][:0]
		dirty := e.dirty[k]
		for s := 0; s < e.n; s++ {
			if !dirty[s] {
				continue
			}
			dirty[s] = false
			env := e.envs[s]
			for _, out := range env.outLocalSh[k] {
				dst := e.envs[out.to]
				dst.inLocalBuf[gen] = append(dst.inLocalBuf[gen], LocalMsg{From: s, Payload: out.payload})
				if dst.wake != 0 {
					dst.wake, e.woke = 0, true
				}
				e.metrics.LocalMsgs++
				e.metrics.LocalBits += out.words * int64(e.logN)
			}
			env.outLocalSh[k] = env.outLocalSh[k][:0]
			e.distReqs[k] = append(e.distReqs[k], env.outGlobalSh[k]...)
			env.outGlobalSh[k] = env.outGlobalSh[k][:0]
		}
	}
	// A round that stages no global message has nothing for a worker to
	// sort or count, so it is not routed — the rule fastForward applies to
	// rounds in which every node sleeps. Metrics need nothing: an empty
	// batch delivers nothing.
	routed := false
	for _, req := range e.distReqs {
		if len(req) > 0 {
			routed = true
			break
		}
	}
	if !routed {
		return finished
	}

	streams, stats, err := e.distRouter.RouteRound(e.generation, e.distReqs)
	if err != nil {
		e.fail(fmt.Errorf("sim: dist delivery failed in generation %d: %w", e.generation, err))
		return finished
	}

	// Fold the sorted delivery streams back into the inboxes, validating
	// that every message landed in its own shard.
	var delivered int64
	for k, stream := range streams {
		lo := k * e.shardSize
		hi := lo + e.shardSize
		if hi > e.n {
			hi = e.n
		}
		for _, m := range stream {
			if m.Dst < lo || m.Dst >= hi {
				e.fail(fmt.Errorf("sim: dist router returned message for node %d outside shard %d [%d,%d)",
					m.Dst, k, lo, hi))
				return finished
			}
			env := e.envs[m.Dst]
			env.inGlobalBuf[gen] = append(env.inGlobalBuf[gen], m)
			if env.wake != 0 {
				env.wake, e.woke = 0, true
			}
			delivered++
		}
	}
	if stats.GlobalMsgs != delivered {
		e.fail(fmt.Errorf("sim: dist router stats claim %d global messages, streams carry %d",
			stats.GlobalMsgs, delivered))
		return finished
	}

	e.metrics.GlobalMsgs += delivered
	e.metrics.GlobalBits += delivered * e.msgBits
	e.metrics.CutGlobalMsgs += stats.CutMsgs
	e.metrics.CutGlobalBits += stats.CutMsgs * e.msgBits
	if stats.MaxRecv > e.metrics.MaxGlobalRecv {
		e.metrics.MaxGlobalRecv = stats.MaxRecv
	}
	if stats.ViolDst >= 0 {
		f := e.cfg.StrictRecvFactor
		e.fail(fmt.Errorf("sim: node %d received %d global messages in generation %d, cap %d",
			stats.ViolDst, stats.ViolCount, e.generation, f*e.logN))
	}
	return finished
}
