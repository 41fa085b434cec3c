// Package chaos is the stack-wide fault injector: one seeded, scriptable,
// mutex-protected Plan that can hurt every layer of the serving stack at
// once — drop/delay/kill dist frames, inject handler latency, connection
// resets, and panics into the HTTP serving layer, force table rebuilds to
// fail, and tear or fail cache writes through the persist FS seam.
//
// A Plan is wired in three places, none of which import this package:
//
//   - dist: pass the Plan itself as Options.Faults (dist.WithFaults, or
//     hybrid.WithDistOptions) — Plan satisfies dist.FaultHook structurally
//   - serve: pass the Plan itself to Server.SetChaos — Plan satisfies
//     serve.ChaosHook structurally
//   - persist: install Plan.FS() with persist.SetFS
//
// Stats() reports what actually fired in one ChaosStats shape, so a soak
// harness can cross-check observed symptoms (429s, 500s, resets, cold
// rebuilds, respawns) against the injected causes.
// Randomized-but-reproducible plans come from Draw: the same seed draws
// the same plan, so a failing soak iteration is replayable from its seed
// alone.
package chaos

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/persist"
)

// ErrInjectedRebuild is the error a forced rebuild failure surfaces:
// serve.Reload reports it (wrapped) and enters degraded mode.
var ErrInjectedRebuild = errors.New("chaos: injected rebuild failure")

// ErrInjectedWrite is the base error of injected FS write/rename/sync
// failures.
var ErrInjectedWrite = errors.New("chaos: injected filesystem failure")

// frameRule is one scripted dist frame fault: request frames sent to shard
// at round are dropped, delayed, or preceded by a worker kill until
// remaining hits zero.
type frameRule struct {
	shard, round int
	remaining    int
	delay        time.Duration
	drop, kill   bool
}

// httpRule is one scripted HTTP-layer fault: requests whose URL path
// contains pathSub suffer the action until remaining hits zero.
type httpRule struct {
	pathSub   string
	remaining int
	delay     time.Duration
	reset     bool
	panics    bool
}

// fsKind enumerates the persist-layer fault flavors.
type fsKind int

const (
	fsShortWrite fsKind = iota
	fsFailWrite
	fsFailRename
	fsFailSync
)

// fsRule is one scripted filesystem fault: operations on paths containing
// pathSub suffer the fault until remaining hits zero.
type fsRule struct {
	kind      fsKind
	pathSub   string
	keep      int // bytes actually written for fsShortWrite
	remaining int
}

// ChaosStats reports what a plan actually injected, across every layer,
// and (Respawns) how many workers the dist router replaced in answer.
type ChaosStats struct {
	Dropped  int
	Delayed  int
	Killed   int
	Respawns int

	HTTPDelays int
	Resets     int
	Panics     int

	RebuildFails int

	ShortWrites   int
	FailedWrites  int
	FailedRenames int
	FailedSyncs   int
}

// Total is the number of faults that fired across all layers (respawns
// are a recovery action, not a fault, and are not counted).
func (s ChaosStats) Total() int {
	return s.Dropped + s.Delayed + s.Killed +
		s.HTTPDelays + s.Resets + s.Panics + s.RebuildFails +
		s.ShortWrites + s.FailedWrites + s.FailedRenames + s.FailedSyncs
}

// Plan is a stack-wide scripted fault plan. The zero value (and a nil
// *Plan) injects nothing; builders are chainable:
//
//	chaos.NewPlan().
//		KillWorker(0, 7).
//		DelayRequests("/distance", 5*time.Millisecond, 3).
//		FailRebuilds(1).
//		ShortWrites(".hybc", 10, 1)
//
// All methods are safe for concurrent use: the serving layer consults the
// plan from parallel request goroutines while the dist coordinator
// consults it from parallel shard goroutines.
type Plan struct {
	mu sync.Mutex

	frameRules   []frameRule
	httpRules    []httpRule
	rebuildFails int
	fsRules      []fsRule

	dropped       int
	delayed       int
	killed        int
	respawns      int
	httpDelays    int
	resets        int
	panics        int
	rebuildsFired int
	shortWrites   int
	failedWrites  int
	failedRenames int
	failedSyncs   int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// DropFrames suppresses the next count request frames sent to shard at
// round: the coordinator skips the write, so its reply wait times out and
// the retry path resends.
func (p *Plan) DropFrames(shard, round, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frameRules = append(p.frameRules, frameRule{shard: shard, round: round, remaining: count, drop: true})
	return p
}

// DelayFrame sleeps d before the next request frame sent to shard at round.
func (p *Plan) DelayFrame(shard, round int, d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frameRules = append(p.frameRules, frameRule{shard: shard, round: round, remaining: 1, delay: d})
	return p
}

// KillWorker kills shard's worker immediately before the request for round
// is sent, exercising the respawn + replay path.
func (p *Plan) KillWorker(shard, round int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frameRules = append(p.frameRules, frameRule{shard: shard, round: round, remaining: 1, kill: true})
	return p
}

// DelayRequests injects d of handler latency into the next count HTTP
// requests whose path contains pathSub ("" matches every path).
func (p *Plan) DelayRequests(pathSub string, d time.Duration, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.httpRules = append(p.httpRules, httpRule{pathSub: pathSub, remaining: count, delay: d})
	return p
}

// ResetRequests tears down the connection of the next count HTTP requests
// whose path contains pathSub, mid-response, without a valid reply.
func (p *Plan) ResetRequests(pathSub string, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.httpRules = append(p.httpRules, httpRule{pathSub: pathSub, remaining: count, reset: true})
	return p
}

// PanicRequests makes the handler panic on the next count HTTP requests
// whose path contains pathSub, exercising the recovery middleware.
func (p *Plan) PanicRequests(pathSub string, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.httpRules = append(p.httpRules, httpRule{pathSub: pathSub, remaining: count, panics: true})
	return p
}

// FailRebuilds forces the next count table rebuilds (serve.Reload) to
// fail with ErrInjectedRebuild, driving the server into degraded mode.
func (p *Plan) FailRebuilds(count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rebuildFails += count
	return p
}

// ShortWrites tears the next count cache writes to paths containing
// pathSub: only the first keep bytes reach the (real) file, and the write
// still reports success — the torn file is only caught by the integrity
// header at load time.
func (p *Plan) ShortWrites(pathSub string, keep, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, fsRule{kind: fsShortWrite, pathSub: pathSub, keep: keep, remaining: count})
	return p
}

// FailWrites fails the next count cache writes to paths containing
// pathSub with ErrInjectedWrite.
func (p *Plan) FailWrites(pathSub string, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, fsRule{kind: fsFailWrite, pathSub: pathSub, remaining: count})
	return p
}

// FailRenames fails the next count cache-file renames on paths containing
// pathSub with ErrInjectedWrite.
func (p *Plan) FailRenames(pathSub string, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, fsRule{kind: fsFailRename, pathSub: pathSub, remaining: count})
	return p
}

// FailSyncs fails the next count directory syncs on paths containing
// pathSub with ErrInjectedWrite.
func (p *Plan) FailSyncs(pathSub string, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fsRules = append(p.fsRules, fsRule{kind: fsFailSync, pathSub: pathSub, remaining: count})
	return p
}

// FrameFault is consulted by the dist coordinator at every request-send
// attempt (it satisfies dist.FaultHook structurally). It consumes every
// rule matching (shard, round): drops and kills flag the attempt, delays
// add up. Safe on a nil plan.
func (p *Plan) FrameFault(shard, round int) (drop, kill bool, delay time.Duration) {
	if p == nil {
		return false, false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frameRules {
		r := &p.frameRules[i]
		if r.remaining == 0 || r.shard != shard || r.round != round {
			continue
		}
		r.remaining--
		switch {
		case r.drop:
			drop = true
			p.dropped++
		case r.kill:
			kill = true
			p.killed++
		default:
			delay += r.delay
			p.delayed++
		}
	}
	return drop, kill, delay
}

// Respawned counts one worker the dist coordinator replaced (the other
// half of dist.FaultHook). Safe on a nil plan.
func (p *Plan) Respawned() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.respawns++
}

// HTTPFault is consulted by the serving layer once per request (it
// satisfies serve.ChaosHook structurally). It consumes the matching rules
// and reports the injected latency and whether the connection must be
// reset or the handler must panic. Safe on a nil plan.
func (p *Plan) HTTPFault(path string) (delay time.Duration, reset, panics bool) {
	if p == nil {
		return 0, false, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.httpRules {
		r := &p.httpRules[i]
		if r.remaining == 0 || !strings.Contains(path, r.pathSub) {
			continue
		}
		r.remaining--
		if r.delay > 0 {
			delay += r.delay
			p.httpDelays++
		}
		if r.reset {
			reset = true
			p.resets++
		}
		if r.panics {
			panics = true
			p.panics++
		}
	}
	return delay, reset, panics
}

// RebuildFault is consulted by serve.Reload before running the real
// rebuild; a non-nil return aborts the rebuild with that error. Safe on a
// nil plan.
func (p *Plan) RebuildFault() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rebuildFails > 0 {
		p.rebuildFails--
		p.rebuildsFired++
		return ErrInjectedRebuild
	}
	return nil
}

// onFS consumes the first FS rule matching (kind, path) and reports
// whether it fired, with the short-write keep count. Safe on a nil plan.
func (p *Plan) onFS(kind fsKind, path string) (fired bool, keep int) {
	if p == nil {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.fsRules {
		r := &p.fsRules[i]
		if r.remaining == 0 || r.kind != kind || !strings.Contains(path, r.pathSub) {
			continue
		}
		r.remaining--
		switch kind {
		case fsShortWrite:
			p.shortWrites++
		case fsFailWrite:
			p.failedWrites++
		case fsFailRename:
			p.failedRenames++
		case fsFailSync:
			p.failedSyncs++
		}
		return true, r.keep
	}
	return false, 0
}

// FS returns a persist.FS that applies the plan's filesystem faults on
// top of the real filesystem; install it with persist.SetFS.
func (p *Plan) FS() persist.FS { return FaultFS{Plan: p} }

// Stats snapshots what the plan has injected so far, all layers merged.
// Safe on a nil plan.
func (p *Plan) Stats() ChaosStats {
	if p == nil {
		return ChaosStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return ChaosStats{
		Dropped:       p.dropped,
		Delayed:       p.delayed,
		Killed:        p.killed,
		Respawns:      p.respawns,
		HTTPDelays:    p.httpDelays,
		Resets:        p.resets,
		Panics:        p.panics,
		RebuildFails:  p.rebuildsFired,
		ShortWrites:   p.shortWrites,
		FailedWrites:  p.failedWrites,
		FailedRenames: p.failedRenames,
		FailedSyncs:   p.failedSyncs,
	}
}

// Space bounds what Draw may put into a random plan. Zero fields disable
// that fault class, so a harness can scope chaos to the layers a given
// iteration exercises.
type Space struct {
	// Dist-layer faults (need Shards/Rounds > 0 to draw any).
	Shards    int // workers in the run, for shard draws
	Rounds    int // upper bound for round draws
	MaxDrops  int
	MaxDelays int
	MaxKills  int

	// HTTP-layer faults.
	HTTPPaths     []string // candidate path substrings, e.g. {"/distance", "/route"}
	MaxHTTPDelays int
	MaxHTTPDelay  time.Duration // per-rule delay cap (default 2ms)
	MaxResets     int
	MaxPanics     int

	// Rebuild + persist faults.
	MaxRebuildFails int
	CacheSub        string // path substring for FS rules, e.g. ".hybc"
	MaxShortWrites  int
	MaxFailedWrites int
	MaxFailedSyncs  int
}

// Draw builds a random plan within sp's bounds from rng. Every count is
// uniform in [0, max]; the same seeded rng draws the same plan, so a soak
// failure is reproducible from its seed.
func Draw(rng *rand.Rand, sp Space) *Plan {
	p := NewPlan()
	maxDelay := sp.MaxHTTPDelay
	if maxDelay <= 0 {
		maxDelay = 2 * time.Millisecond
	}
	if sp.Shards > 0 && sp.Rounds > 0 {
		for i := rng.Intn(sp.MaxDrops + 1); i > 0; i-- {
			p.DropFrames(rng.Intn(sp.Shards), rng.Intn(sp.Rounds), 1+rng.Intn(2))
		}
		for i := rng.Intn(sp.MaxDelays + 1); i > 0; i-- {
			p.DelayFrame(rng.Intn(sp.Shards), rng.Intn(sp.Rounds), time.Duration(1+rng.Intn(int(maxDelay))))
		}
		for i := rng.Intn(sp.MaxKills + 1); i > 0; i-- {
			p.KillWorker(rng.Intn(sp.Shards), rng.Intn(sp.Rounds))
		}
	}
	if len(sp.HTTPPaths) > 0 {
		path := func() string { return sp.HTTPPaths[rng.Intn(len(sp.HTTPPaths))] }
		for i := rng.Intn(sp.MaxHTTPDelays + 1); i > 0; i-- {
			p.DelayRequests(path(), time.Duration(1+rng.Intn(int(maxDelay))), 1+rng.Intn(3))
		}
		for i := rng.Intn(sp.MaxResets + 1); i > 0; i-- {
			p.ResetRequests(path(), 1+rng.Intn(2))
		}
		for i := rng.Intn(sp.MaxPanics + 1); i > 0; i-- {
			p.PanicRequests(path(), 1+rng.Intn(2))
		}
	}
	if n := rng.Intn(sp.MaxRebuildFails + 1); n > 0 {
		p.FailRebuilds(n)
	}
	if sp.CacheSub != "" {
		for i := rng.Intn(sp.MaxShortWrites + 1); i > 0; i-- {
			p.ShortWrites(sp.CacheSub, rng.Intn(64), 1)
		}
		for i := rng.Intn(sp.MaxFailedWrites + 1); i > 0; i-- {
			p.FailWrites(sp.CacheSub, 1)
		}
		for i := rng.Intn(sp.MaxFailedSyncs + 1); i > 0; i-- {
			p.FailSyncs(sp.CacheSub, 1)
		}
	}
	return p
}
