package chaos

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/persist"
)

// TestHTTPFaultConsumesRules pins the HTTP rule semantics: path-substring
// matching, bounded counts, additive delays, and the stats counters.
func TestHTTPFaultConsumesRules(t *testing.T) {
	p := NewPlan().
		DelayRequests("/distance", 3*time.Millisecond, 2).
		ResetRequests("/route", 1).
		PanicRequests("", 1) // matches every path

	d, reset, panics := p.HTTPFault("/distance?from=1&to=2")
	if d != 3*time.Millisecond || reset || !panics {
		t.Errorf("first /distance: d=%v reset=%v panics=%v", d, reset, panics)
	}
	d, reset, panics = p.HTTPFault("/distance")
	if d != 3*time.Millisecond || reset || panics {
		t.Errorf("second /distance: d=%v reset=%v panics=%v", d, reset, panics)
	}
	d, reset, panics = p.HTTPFault("/distance")
	if d != 0 || reset || panics {
		t.Errorf("exhausted /distance still fired: d=%v reset=%v panics=%v", d, reset, panics)
	}
	if _, reset, _ = p.HTTPFault("/route"); !reset {
		t.Error("/route reset did not fire")
	}
	if _, reset, _ = p.HTTPFault("/route"); reset {
		t.Error("/route reset fired twice")
	}

	s := p.Stats()
	if s.HTTPDelays != 2 || s.Resets != 1 || s.Panics != 1 {
		t.Errorf("stats %+v", s)
	}
	if s.Total() != 4 {
		t.Errorf("total %d, want 4", s.Total())
	}
}

// TestNilPlanIsInert pins the nil contract on every consultation point.
func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if d, reset, panics := p.HTTPFault("/x"); d != 0 || reset || panics {
		t.Error("nil plan injected an HTTP fault")
	}
	if err := p.RebuildFault(); err != nil {
		t.Error("nil plan injected a rebuild fault")
	}
	if fired, _ := p.onFS(fsShortWrite, "x"); fired {
		t.Error("nil plan injected an FS fault")
	}
	if drop, kill, delay := p.FrameFault(0, 0); drop || kill || delay != 0 {
		t.Error("nil plan injected a frame fault")
	}
	p.Respawned()
	if s := p.Stats(); s != (ChaosStats{}) {
		t.Errorf("nil plan stats %+v", s)
	}
}

// TestRebuildFaultBudget pins FailRebuilds: exactly count failures, then
// clean rebuilds.
func TestRebuildFaultBudget(t *testing.T) {
	p := NewPlan().FailRebuilds(2)
	for i := 0; i < 2; i++ {
		if err := p.RebuildFault(); !errors.Is(err, ErrInjectedRebuild) {
			t.Fatalf("rebuild %d: got %v", i, err)
		}
	}
	if err := p.RebuildFault(); err != nil {
		t.Fatalf("exhausted budget still failed: %v", err)
	}
	if s := p.Stats(); s.RebuildFails != 2 {
		t.Errorf("stats %+v", s)
	}
}

// TestFrameFaultRules pins the frame-fault rule semantics through a
// scripted sequence of send attempts: every rule matching an attempt fires
// (drops and kills flag it, delays add up), a counted rule fires exactly
// that many times, and Stats counts what fired plus the respawns reported.
func TestFrameFaultRules(t *testing.T) {
	p := NewPlan().
		DropFrames(1, 3, 2).
		DelayFrame(1, 3, time.Millisecond).
		DelayFrame(0, 5, 2*time.Millisecond).
		DelayFrame(0, 5, 3*time.Millisecond).
		KillWorker(0, 7)
	type action struct {
		drop, kill bool
		delay      time.Duration
	}
	steps := []struct {
		shard, round int
		want         action
	}{
		{1, 3, action{drop: true, delay: time.Millisecond}}, // two rules match one attempt
		{1, 3, action{drop: true}},                          // the count-2 drop fires again
		{1, 3, action{}},                                    // and is spent
		{0, 5, action{delay: 5 * time.Millisecond}},         // two delays add up
		{0, 7, action{kill: true}},
		{0, 7, action{}},
		{2, 3, action{}}, // no rule matches
	}
	for i, s := range steps {
		var got action
		got.drop, got.kill, got.delay = p.FrameFault(s.shard, s.round)
		if got != s.want {
			t.Errorf("attempt %d (shard %d, round %d): %+v, want %+v", i, s.shard, s.round, got, s.want)
		}
	}
	p.Respawned()
	if got, want := p.Stats(), (ChaosStats{Dropped: 2, Delayed: 3, Killed: 1, Respawns: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// TestFaultFSShortWrite pins the torn-write path end to end through the
// real persist codec: the chaos FS truncates the cache file, the write
// reports success, and the load detects ErrCorrupt.
func TestFaultFSShortWrite(t *testing.T) {
	p := NewPlan().ShortWrites(".hybc", 10, 1)
	restore := persist.SetFS(p.FS())
	defer restore()

	path := filepath.Join(t.TempDir(), "cache.hybc")
	if err := persist.SaveCompressed(path, 1, []int{1, 2, 3}); err != nil {
		t.Fatalf("short write surfaced an error: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 10 {
		t.Errorf("torn file is %d bytes, want 10", st.Size())
	}
	var out []int
	if err := persist.LoadCompressed(path, 1, &out); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("loading torn file: got %v, want ErrCorrupt", err)
	}

	// The rule is consumed: the next save is clean and loads back.
	if err := persist.SaveCompressed(path, 1, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := persist.LoadCompressed(path, 1, &out); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.ShortWrites != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestFaultFSFailures pins the fail-write/rename/sync rules: each save
// surfaces the injected error without leaving a temp file, and a
// fail-sync still installs the file (the data made it, durability didn't).
func TestFaultFSFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.hybc")

	p := NewPlan().FailWrites(".hybc", 1).FailRenames(".hybc", 1).FailSyncs(dir, 1)
	restore := persist.SetFS(p.FS())
	defer restore()

	for i := 0; i < 3; i++ {
		if err := persist.SaveCompressed(path, 1, []int{i}); !errors.Is(err, ErrInjectedWrite) {
			t.Fatalf("save %d: got %v, want ErrInjectedWrite", i, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("save %d left a temp file", i)
		}
	}
	// After the failed sync the renamed file exists (rename succeeded).
	if _, err := os.Stat(path); err != nil {
		t.Errorf("fail-sync removed the installed file: %v", err)
	}
	if err := persist.SaveCompressed(path, 1, []int{9}); err != nil {
		t.Fatalf("exhausted plan still failing: %v", err)
	}
	s := p.Stats()
	if s.FailedWrites != 1 || s.FailedRenames != 1 || s.FailedSyncs != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestDrawDeterministic pins reproducibility: the same seed draws a plan
// with identical rule scripts (observed via identical fault behavior),
// and draws stay within the space's bounds.
func TestDrawDeterministic(t *testing.T) {
	sp := Space{
		Shards: 3, Rounds: 50, MaxDrops: 3, MaxDelays: 2, MaxKills: 1,
		HTTPPaths: []string{"/distance", "/route"}, MaxHTTPDelays: 3, MaxResets: 2, MaxPanics: 2,
		MaxRebuildFails: 2, CacheSub: ".hybc", MaxShortWrites: 2, MaxFailedWrites: 1, MaxFailedSyncs: 1,
	}
	for seed := int64(0); seed < 20; seed++ {
		a := Draw(rand.New(rand.NewSource(seed)), sp)
		b := Draw(rand.New(rand.NewSource(seed)), sp)
		// Drain both plans identically and compare every observation.
		for i := 0; i < 30; i++ {
			path := sp.HTTPPaths[i%2]
			da, ra, pa := a.HTTPFault(path)
			db, rb, pb := b.HTTPFault(path)
			if da != db || ra != rb || pa != pb {
				t.Fatalf("seed %d: HTTP draw diverged at %d", seed, i)
			}
		}
		for i := 0; i < 5; i++ {
			ea, eb := a.RebuildFault(), b.RebuildFault()
			if (ea == nil) != (eb == nil) {
				t.Fatalf("seed %d: rebuild draw diverged", seed)
			}
		}
		for _, kind := range []fsKind{fsShortWrite, fsFailWrite, fsFailSync} {
			for i := 0; i < 4; i++ {
				fa, ka := a.onFS(kind, "x.hybc")
				fb, kb := b.onFS(kind, "x.hybc")
				if fa != fb || ka != kb {
					t.Fatalf("seed %d: FS draw diverged", seed)
				}
			}
		}
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, sa, sb)
		}
	}
}
