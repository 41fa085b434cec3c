package hybrid_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	hybrid "repro"
)

// TestFacadeStepNative asserts that a Network built with no engine option
// runs every facade algorithm on the goroutine-free step engine: while a run
// is in flight the process has the goroutines it had before it (the legacy
// engine would add one per node).
func TestFacadeStepNative(t *testing.T) {
	g := hybrid.GridGraph(6, 6)
	during := 0
	net := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithProgress(func(int) {
		during = max(during, runtime.NumGoroutine())
	}))
	specs := make([]hybrid.RoutingSpec, g.N())
	for v := range specs {
		next := (v + 1) % g.N()
		specs[v] = hybrid.RoutingSpec{
			Send:   []hybrid.RoutingToken{{Label: hybrid.RoutingLabel{S: v, R: next}, Value: int64(v)}},
			Expect: []hybrid.RoutingLabel{{S: (v - 1 + g.N()) % g.N(), R: v}},
			InS:    true, InR: true, KS: 1, KR: 1, PS: 1, PR: 1,
		}
	}
	calls := []struct {
		name string
		run  func() error
	}{
		{"APSP", func() error { _, err := net.APSP(); return err }},
		{"APSPBaseline", func() error { _, err := net.APSPBaseline(); return err }},
		{"APSPLocalOnly", func() error { _, err := net.APSPLocalOnly(10); return err }},
		{"SSSP", func() error { _, err := net.SSSP(0); return err }},
		{"KSSP/Cor46", func() error { _, err := net.KSSP([]int{0, 35}, hybrid.Cor46(0.5)); return err }},
		{"KSSP/RealMM", func() error { _, err := net.KSSP([]int{0, 35}, hybrid.KSSPRealMM(2)); return err }},
		{"Diameter/Cor52", func() error { _, err := net.Diameter(hybrid.DiamCor52(0.5)); return err }},
		{"Diameter/RealMM", func() error { _, err := net.Diameter(hybrid.DiamRealMM(2)); return err }},
		{"WeightedDiameterApprox", func() error { _, err := net.WeightedDiameterApprox(); return err }},
		{"TokenRouting", func() error { _, _, err := net.TokenRouting(specs); return err }},
	}
	for _, c := range calls {
		before := runtime.NumGoroutine()
		during = 0
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if during == 0 || during > before+g.N()/2 {
			t.Errorf("%s: %d goroutines during the run, %d before it: not the step engine", c.name, during, before)
		}
	}
}

// TestFacadeContextCancel pins cooperative cancellation on every engine: a
// pre-cancelled context aborts the run promptly with an error satisfying
// errors.Is(err, context.Canceled).
func TestFacadeContextCancel(t *testing.T) {
	g := hybrid.GridGraph(8, 8)
	for _, eng := range allEngines {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		net := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(eng), hybrid.WithContext(ctx))
		_, err := net.APSP()
		if err == nil {
			t.Fatalf("%s: cancelled run returned no error", eng)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled in chain", eng, err)
		}
	}
}

// TestFacadeContextMidRunCancel cancels from the progress hook, proving
// the hook runs and cancellation is honored mid-run rather than only at
// startup.
func TestFacadeContextMidRunCancel(t *testing.T) {
	g := hybrid.GridGraph(8, 8)
	for _, eng := range allEngines {
		ctx, cancel := context.WithCancel(context.Background())
		stopAt := 25
		net := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(eng),
			hybrid.WithContext(ctx),
			hybrid.WithProgress(func(round int) {
				if round == stopAt {
					cancel()
				}
			}))
		_, err := net.APSP()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled in chain", eng, err)
		}
		cancel()
	}
}

// TestFacadeProgressHook pins the per-round hook contract on every engine:
// called once per round with 1..Metrics.Rounds... (the final generation
// that retires the last nodes may add one extra tick).
func TestFacadeProgressHook(t *testing.T) {
	g := hybrid.PathGraph(20)
	for _, eng := range allEngines {
		var rounds []int
		net := hybrid.New(g, hybrid.WithSeed(2), hybrid.WithEngine(eng),
			hybrid.WithProgress(func(r int) { rounds = append(rounds, r) }))
		res, err := net.APSPLocalOnly(19)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if len(rounds) == 0 {
			t.Fatalf("%s: progress hook never called", eng)
		}
		for i, r := range rounds {
			if r != i+1 {
				t.Fatalf("%s: hook sequence broken at %d: got %d", eng, i, r)
			}
		}
		if last := rounds[len(rounds)-1]; last < res.Metrics.Rounds {
			t.Errorf("%s: last hook round %d < Metrics.Rounds %d", eng, last, res.Metrics.Rounds)
		}
	}
}

// TestRoutingSessionReuseAcrossCalls pins the Network-level run context:
// repeated APSP calls on one Network reuse the cached routing session, so
// the second call takes strictly fewer rounds while producing the
// identical distance matrix — on every engine, with identical counts
// across engines.
func TestRoutingSessionReuseAcrossCalls(t *testing.T) {
	g := hybrid.GridGraph(7, 7)
	var wantFirst, wantSecond int
	for ei, eng := range allEngines {
		net := hybrid.New(g, hybrid.WithSeed(3), hybrid.WithEngine(eng))
		first, err := net.APSP()
		if err != nil {
			t.Fatalf("%s first: %v", eng, err)
		}
		second, err := net.APSP()
		if err != nil {
			t.Fatalf("%s second: %v", eng, err)
		}
		if !reflect.DeepEqual(first.Dist, second.Dist) {
			t.Errorf("%s: session reuse changed the distance matrix", eng)
		}
		if second.Metrics.Rounds >= first.Metrics.Rounds {
			t.Errorf("%s: session cache saved nothing: %d rounds then %d",
				eng, first.Metrics.Rounds, second.Metrics.Rounds)
		}
		if ei == 0 {
			wantFirst, wantSecond = first.Metrics.Rounds, second.Metrics.Rounds
			t.Logf("rounds: first call %d, cached second call %d (saved %d)",
				wantFirst, wantSecond, wantFirst-wantSecond)
		} else if first.Metrics.Rounds != wantFirst || second.Metrics.Rounds != wantSecond {
			t.Errorf("%s: cached round counts diverge across engines: (%d,%d) vs (%d,%d)",
				eng, first.Metrics.Rounds, second.Metrics.Rounds, wantFirst, wantSecond)
		}
	}
}

// TestFacadeKSSPBadSource pins source validation on the spec-value path.
func TestFacadeKSSPBadSource(t *testing.T) {
	net := hybrid.New(hybrid.PathGraph(5))
	if _, err := net.KSSP([]int{-1}, hybrid.Cor46(0.5)); err == nil {
		t.Fatal("expected error for negative source")
	}
	if _, err := net.KSSP([]int{7}, hybrid.Cor46(0.5)); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
}
