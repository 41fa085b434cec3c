package sim

import "runtime"

// This file is the engines' staging and the step loop's delivery, everything
// the engine itself does per round besides calling the machines:
//
//   - The node set is split into contiguous shards, and into staging
//     groups of consecutive nodes: on the step loop (and EngineDist) a group
//     is a shard, on EngineLegacy, whose goroutines send concurrently, a
//     node. A sender stages each message at send time into its group's
//     bucket for the destination's shard, so round delivery never sorts or
//     locks: the worker owning shard k drains bucket k of every group, in
//     ascending group order. A shard's nodes step in ascending ID, so each
//     bucket holds its messages by ascending sender, then send order, and
//     the drain reproduces the engine contract (inboxes ordered by sender
//     ID, then send order) independently of the shard count. It reads one
//     bucket per shard pair, so it costs work in the messages that moved,
//     not in n.
//   - Stepping and delivery fan out over the shards once per round each
//     (fanOut). The coordinator runs shard 0 itself and a persistent pool of
//     nShards-1 goroutines takes the others, so the default shard count
//     (one per CPU) puts exactly one runnable goroutine on every P. Tasks
//     and results travel through buffered channels, and a goroutine that
//     waits for one polls briefly before it parks (recvPoll): the phases
//     of a round follow each other within microseconds, so the next task
//     or result usually arrives during the poll and a hand-off wakes no
//     parked goroutine. Workers touch disjoint state: stepping shard k
//     writes only its own group's buckets; delivering shard k writes only
//     the inboxes and receive counters of shard k's nodes, the k-buckets of
//     the groups and, under EngineDist, shard k's request batch. Buckets are
//     padded to a cache line, so neither phase bounces a line between
//     workers. The merge of the per-shard results is the only cross-shard
//     step, and it is a sum/max/min/or merge that is independent of
//     completion order.
//   - Every node has one inbox, reset and refilled by each round's delivery
//     of its shard, so steady-state rounds allocate nothing. Delivery runs
//     after every machine of the round was called, which is what Incoming's
//     contract asks: the slices are valid only during the Step call that
//     reads them.
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

// shardResult is one shard's metric delta for one round (or, for a step
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

// merge adds r into t.
func (t *shardResult) merge(r shardResult) {
	t.finished += r.finished
	t.woke = t.woke || r.woke
	t.minWake = min(t.minWake, r.minWake)
	t.localMsgs += r.localMsgs
	t.localBits += r.localBits
	t.globalMsgs += r.globalMsgs
	t.globalBits += r.globalBits
	t.cutMsgs += r.cutMsgs
	t.cutBits += r.cutBits
	t.maxSend = max(t.maxSend, r.maxSend)
	t.maxRecv = max(t.maxRecv, r.maxRecv)
}

// minShardNodes is the autotune floor on nodes per shard: below it the
// hand-off to another shard costs more than the stepping and delivery work
// it takes over. In BenchmarkEngineAPSP (unweighted grid, 2-core VM,
// medians of ten runs) two shards of 64 nodes at n = 128 about break even
// with one (28.9 against 31.4 ms, quartiles overlapping), two of 128 at
// n = 256 are 1.11× faster and two of 512 at n = 1024 1.30×.
const minShardNodes = 64

// pollSpins bounds how long a goroutine of the pool, or the coordinator,
// polls its channel before it parks on it (recvPoll): 4 000 non-blocking
// receives with a yield every pollYield of them, a few tens of
// microseconds. A busy run's phases hand over to each other within that;
// an idle pool (between runs, or while the loop fast-forwards) parks.
const (
	pollSpins = 4000
	pollYield = 128
)

// initSharded prepares the step loop: it sizes the shards (initStaging) and
// starts the pool of nShards-1 goroutines that take shards 1.. of every
// fanOut (the coordinator takes shard 0). Shards <= 0 autotunes: one shard
// per available CPU, capped so every shard keeps at least minShardNodes
// nodes. The shard count never
// changes results (the differential tests pin shard-count invariance), only
// the parallel grain. Waiting goroutines poll only if the pool and the
// coordinator fit in GOMAXPROCS: with fewer Ps than shards, a poller would
// spin on the P the goroutine it waits for needs.
func (e *engine) initSharded() {
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
	e.initStaging(s, false)
	e.recvCount = make([]int, e.n)
	if e.nShards > 1 {
		e.poll = e.nShards <= runtime.GOMAXPROCS(0)
		// Room for one phase's tasks and results: no send ever blocks.
		e.workCh = make(chan shardTask, e.nShards-1)
		e.resCh = make(chan shardResult, e.nShards-1)
		for w := 1; w < e.nShards; w++ {
			go func() {
				for {
					t, ok := recvPoll(e.workCh, e.poll)
					if !ok {
						return
					}
					e.resCh <- e.runTask(t)
				}
			}()
		}
	}
}

// initStaging splits the nodes into at most s shards (s >= 1) and sets up
// the staging every engine sends through: one bucket per staging group and
// destination shard, where a group is a shard, or a node if perNode is set
// (EngineLegacy, whose nodes stage concurrently). Every node stages into its
// group's row of buckets.
func (e *engine) initStaging(s int, perNode bool) {
	s = min(s, e.n)
	e.shardSize = (e.n + s - 1) / s
	e.nShards = (e.n + e.shardSize - 1) / e.shardSize
	groupSize := e.shardSize
	if perNode {
		groupSize = 1
	}
	groups := (e.n + groupSize - 1) / groupSize
	e.stage = make([]bucket, groups*e.nShards)
	for v, env := range e.envs {
		g := v / groupSize
		env.out = e.stage[g*e.nShards : (g+1)*e.nShards]
	}
}

// stopSharded shuts the worker pool down.
func (e *engine) stopSharded() {
	if e.workCh != nil {
		close(e.workCh)
	}
}

func (e *engine) shardOf(v int) int { return v / e.shardSize }

// recvPoll receives from ch. With poll set it first tries pollSpins
// non-blocking receives, yielding the P every pollYield of them, and only
// then blocks; ok is false once ch is closed and drained.
func recvPoll[T any](ch chan T, poll bool) (v T, ok bool) {
	if poll {
		for i := 1; i <= pollSpins; i++ {
			select {
			case v, ok = <-ch:
				return v, ok
			default:
			}
			if i%pollYield == 0 {
				runtime.Gosched()
			}
		}
	}
	v, ok = <-ch
	return v, ok
}

// runTask executes one task on the calling goroutine.
func (e *engine) runTask(t shardTask) shardResult {
	if t.step {
		return shardResult{minWake: e.stepShard(t.k)}
	}
	return e.runShard(t.k)
}

// fanOut runs one phase of the round on every shard — shards 1.. on the
// pool, shard 0 on the calling coordinator meanwhile — and returns the
// merged result. With one shard it is a plain call.
func (e *engine) fanOut(step bool) shardResult {
	for k := 1; k < e.nShards; k++ {
		e.workCh <- shardTask{k: k, step: step}
	}
	total := e.runTask(shardTask{step: step})
	for k := 1; k < e.nShards; k++ {
		r, _ := recvPoll(e.resCh, e.poll)
		total.merge(r)
	}
	return total
}

// deliverRound is the step loop's round boundary: deliver every shard, merge
// their metric deltas and, under EngineDist, route the round's global
// messages (routeRound); it returns how many nodes finished.
func (e *engine) deliverRound() int {
	e.generation++
	for k := range e.distReqs {
		e.distReqs[k] = e.distReqs[k][:0]
	}
	total := e.fanOut(false)
	e.woke = total.woke
	e.metrics.LocalMsgs += total.localMsgs
	e.metrics.LocalBits += total.localBits
	e.metrics.GlobalMsgs += total.globalMsgs
	e.metrics.GlobalBits += total.globalBits
	e.metrics.CutGlobalMsgs += total.cutMsgs
	e.metrics.CutGlobalBits += total.cutBits
	e.metrics.MaxGlobalSend = max(e.metrics.MaxGlobalSend, total.maxSend)
	e.metrics.MaxGlobalRecv = max(e.metrics.MaxGlobalRecv, total.maxRecv)
	if e.distMode {
		e.routeRound()
	}
	return total.finished
}

// runShard performs one round of delivery for shard k: reset the shard's
// inboxes and account for its senders, drain the k-bucket of every staging
// group in ascending group order — ascending sender ID, then send order —
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

	for v := lo; v < hi; v++ {
		env := e.envs[v]
		if len(env.inLocal) > 0 {
			env.inLocal = env.inLocal[:0]
		}
		if len(env.inGlobal) > 0 {
			env.inGlobal = env.inGlobal[:0]
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
	for i := k; i < len(e.stage); i += e.nShards {
		b := &e.stage[i]
		for _, out := range b.local {
			dst := e.envs[out.to]
			dst.inLocal = append(dst.inLocal, LocalMsg{From: int(out.from), Payload: out.payload})
			if dst.wake != 0 {
				dst.wake, r.woke = 0, true
			}
			r.localMsgs++
			r.localBits += out.words * int64(e.logN)
		}
		b.local = b.local[:0]
		for _, gm := range b.global {
			if e.distMode {
				e.distReqs[k] = append(e.distReqs[k], gm)
			} else {
				dst := e.envs[gm.Dst]
				dst.inGlobal = append(dst.inGlobal, gm)
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
		b.global = b.global[:0]
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
