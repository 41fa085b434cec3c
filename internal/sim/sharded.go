package sim

import "runtime"

// This file is the step engine's staging and delivery, everything the
// engine itself does per round besides calling the machines:
//
//   - The node set is split into contiguous shards. Every sender stages its
//     outgoing messages into per-destination-shard buckets at send time, so
//     round delivery never sorts or locks: the worker owning shard k drains
//     bucket k of every sender in ascending sender ID, which reproduces the
//     engine contract (inboxes ordered by sender ID, then send order)
//     independently of the shard count.
//   - Delivery runs on a persistent worker pool (one worker per shard, at
//     most GOMAXPROCS shards). Workers touch disjoint state: shard k's
//     worker writes only the inboxes and receive counters of shard k's
//     nodes, the k-buckets of the senders and, under EngineDist, shard k's
//     request batch, so the merge of the per-shard metric deltas is the
//     only cross-shard step, and it is a sum/max merge that is independent
//     of completion order.
//   - Inboxes are preallocated and double-buffered: the buffer delivered at
//     round r is reused at round r+2, so steady-state rounds allocate
//     nothing. (Incoming's contract — the slices are the node's until its
//     next round segment — grants one round of ownership; the double buffer
//     leaves an extra round of slack.)
//   - Senders that staged nothing for a shard are skipped via a dirty flag,
//     so sparse rounds (the common case in delta-style flooding protocols)
//     cost O(n) flag reads instead of O(n) slice scans per shard.
//
// The legacy engine's deliver (legacy.go) is the reference: for any machine
// and seed, both must produce byte-identical results and Metrics.
// engines_test.go enforces this.

// shardTask is one unit of worker-pool work: deliver shard k (the default),
// or advance the state machines of shard k's nodes by one round (step); see
// step.go.
type shardTask struct {
	k    int
	step bool
}

// shardResult is one worker's metric delta for one round (or, for a step
// task, only minWake). Merging the results is commutative (sums, maxes, a
// min and an or), so the aggregate Metrics do not depend on worker
// scheduling.
type shardResult struct {
	finished   int
	woke       bool // a message reached a sleeping node (see Env.SleepUntil)
	minWake    int  // step tasks: earliest round any stepped-over node needs a call
	localMsgs  int64
	localBits  int64
	globalMsgs int64
	globalBits int64
	cutMsgs    int64
	cutBits    int64
	maxSend    int
	maxRecv    int
}

// minShardNodes is the autotune floor on nodes per shard: below it the
// per-round fan-out/merge overhead of another worker outweighs the stepping
// and delivery work it takes over (measured on the grid APSP workload).
const minShardNodes = 64

// initSharded switches the engine to step mode: it sizes the shards and
// preallocates the per-env staging state. Shards <= 0 autotunes: one shard per available CPU, capped so every
// shard keeps at least minShardNodes nodes. The shard count never changes
// results (the differential tests pin shard-count invariance), only the
// parallel grain.
func (e *engine) initSharded() {
	e.stepMode = true
	s := e.cfg.Shards
	if e.distMode {
		// One worker process per shard: under EngineDist the shard count IS
		// the worker count, so DistWorkers replaces both Shards and the
		// autotune (results stay independent of the value, as always).
		s = e.cfg.DistWorkers
		if s <= 0 {
			s = DefaultDistWorkers
		}
	}
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
		if max := e.n / minShardNodes; s > max {
			s = max
		}
		if s < 1 {
			s = 1
		}
	}
	if s > e.n {
		s = e.n
	}
	e.shardSize = (e.n + s - 1) / s
	e.nShards = (e.n + e.shardSize - 1) / e.shardSize
	e.recvCount = make([]int, e.n)
	e.dirty = make([][]bool, e.nShards)
	for k := range e.dirty {
		e.dirty[k] = make([]bool, e.n)
	}
	for _, env := range e.envs {
		env.outLocalSh = make([][]localOut, e.nShards)
		env.outGlobalSh = make([][]GlobalMsg, e.nShards)
	}
	if e.nShards > 1 {
		e.workCh = make(chan shardTask)
		e.resCh = make(chan shardResult)
		for w := 0; w < e.nShards; w++ {
			go func() {
				for t := range e.workCh {
					if t.step {
						e.resCh <- shardResult{minWake: e.stepShard(t.k)}
					} else {
						e.resCh <- e.runShard(t.k)
					}
				}
			}()
		}
	}
}

// stopSharded shuts the worker pool down.
func (e *engine) stopSharded() {
	if e.workCh != nil {
		close(e.workCh)
	}
}

func (e *engine) shardOf(v int) int { return v / e.shardSize }

// deliverSharded is the in-process round boundary: fan the shards out to the
// workers, merge their metric deltas, and return how many nodes finished.
func (e *engine) deliverSharded() int {
	e.generation++
	var total shardResult
	if e.nShards == 1 {
		total = e.runShard(0)
	} else {
		for k := 0; k < e.nShards; k++ {
			e.workCh <- shardTask{k: k}
		}
		for k := 0; k < e.nShards; k++ {
			r := <-e.resCh
			total.finished += r.finished
			total.woke = total.woke || r.woke
			total.localMsgs += r.localMsgs
			total.localBits += r.localBits
			total.globalMsgs += r.globalMsgs
			total.globalBits += r.globalBits
			total.cutMsgs += r.cutMsgs
			total.cutBits += r.cutBits
			if r.maxSend > total.maxSend {
				total.maxSend = r.maxSend
			}
			if r.maxRecv > total.maxRecv {
				total.maxRecv = r.maxRecv
			}
		}
	}
	e.woke = total.woke
	e.metrics.LocalMsgs += total.localMsgs
	e.metrics.LocalBits += total.localBits
	e.metrics.GlobalMsgs += total.globalMsgs
	e.metrics.GlobalBits += total.globalBits
	e.metrics.CutGlobalMsgs += total.cutMsgs
	e.metrics.CutGlobalBits += total.cutBits
	if total.maxSend > e.metrics.MaxGlobalSend {
		e.metrics.MaxGlobalSend = total.maxSend
	}
	if total.maxRecv > e.metrics.MaxGlobalRecv {
		e.metrics.MaxGlobalRecv = total.maxRecv
	}
	return total.finished
}

// runShard performs one round of delivery for shard k: reset the shard's
// inbox buffers and account for its senders, drain every dirty sender's
// k-bucket in ascending sender ID (preserving per-destination send order),
// and tally the shard's receive loads. Under EngineDist the global messages
// are counted all the same but go to the shard's request batch, not to the
// inboxes: routeRound (dist.go) delivers them once the worker sorted them.
func (e *engine) runShard(k int) shardResult {
	var r shardResult
	lo := k * e.shardSize
	hi := lo + e.shardSize
	if hi > e.n {
		hi = e.n
	}
	gen := e.generation & 1

	for v := lo; v < hi; v++ {
		env := e.envs[v]
		if len(env.inLocalBuf[gen]) > 0 {
			env.inLocalBuf[gen] = env.inLocalBuf[gen][:0]
		}
		if len(env.inGlobalBuf[gen]) > 0 {
			env.inGlobalBuf[gen] = env.inGlobalBuf[gen][:0]
		}
		if env.finished && !env.countedFinished {
			env.countedFinished = true
			r.finished++
		}
		if env.globalSentThisRound > 0 {
			if env.globalSentThisRound > r.maxSend {
				r.maxSend = env.globalSentThisRound
			}
			env.globalSentThisRound = 0
		}
	}

	cut := e.cfg.Cut
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
				dst.wake, r.woke = 0, true
			}
			r.localMsgs++
			r.localBits += out.words * int64(e.logN)
		}
		env.outLocalSh[k] = env.outLocalSh[k][:0]
		for _, gm := range env.outGlobalSh[k] {
			if e.distMode {
				e.distReqs[k] = append(e.distReqs[k], gm)
			} else {
				dst := e.envs[gm.Dst]
				dst.inGlobalBuf[gen] = append(dst.inGlobalBuf[gen], gm)
				if dst.wake != 0 {
					dst.wake, r.woke = 0, true
				}
			}
			e.recvCount[gm.Dst]++
			r.globalMsgs++
			r.globalBits += e.msgBits
			if cut != nil && cut[gm.Src] != cut[gm.Dst] {
				r.cutMsgs++
				r.cutBits += e.msgBits
			}
		}
		env.outGlobalSh[k] = env.outGlobalSh[k][:0]
	}

	// Receive loads: every nonzero count was written this round (counts are
	// reset as they are read), so a round that delivered no global messages
	// to this shard can skip the scan.
	if r.globalMsgs > 0 {
		for d := lo; d < hi; d++ {
			c := e.recvCount[d]
			if c == 0 {
				continue
			}
			e.recvCount[d] = 0
			if c > r.maxRecv {
				r.maxRecv = c
			}
		}
	}
	return r
}
