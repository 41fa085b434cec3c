package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// Tests of the step engine's worker pool (sharded.go): its goroutines end
// with the run however the run ends, and an explicit shard count larger
// than the machine's processors changes nothing but the grain. The names
// carry ShardCountInvariance so that the race step of CI, which selects on
// it, runs them under -race -cpu 1,4.

// waitGoroutines waits until no more than base goroutines run, failing the
// test if the pool of the run before has not wound down by the deadline.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines 2s after the run, baseline %d", what, n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardCountInvariancePoolLifecycle: at Shards 4, a run that completes,
// one cancelled mid-run, one stopped by MaxRounds, one whose node panics and
// a Stepper driven to Finish all leave the goroutine count where it was.
func TestShardCountInvariancePoolLifecycle(t *testing.T) {
	g := graph.Grid(6, 6)
	chatter := func(env *Env) StepProgram { return newStepChatter(env, make([]int64, g.N())) }
	forever := func(*Env) StepProgram { return &Loop{Rounds: 1 << 20, Send: never} }
	base := runtime.NumGoroutine()

	if _, err := RunStep(g, Config{Seed: 1, Shards: 4}, chatter); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "completed run", base)

	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunStep(g, Config{Seed: 1, Shards: 4, Ctx: ctx, OnRound: func(r int) {
		if r == 5 {
			cancel()
		}
	}}, forever)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, "cancelled run", base)

	if _, err := RunStep(g, Config{Seed: 1, Shards: 4, MaxRounds: 40}, forever); !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("MaxRounds run: err = %v, want ErrTooManyRounds", err)
	}
	waitGoroutines(t, "MaxRounds run", base)

	_, err = RunStep(g, Config{Seed: 1, Shards: 4}, func(env *Env) StepProgram {
		return &Loop{Rounds: 50, Send: func(env *Env, i int) {
			if env.ID() == 29 && i == 3 {
				panic("boom")
			}
		}}
	})
	if err == nil || !strings.Contains(err.Error(), "node 29 panicked") {
		t.Fatalf("panicking run: err = %v, want node 29's panic", err)
	}
	waitGoroutines(t, "panicking run", base)

	st, err := NewStepper(g, Config{Seed: 1, Shards: 4}, chatter)
	if err != nil {
		t.Fatal(err)
	}
	st.Advance(3)
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "Stepper", base)
}

// TestShardCountInvarianceOversubscribed: seven shards on one processor
// finish with the results and Metrics of one shard.
func TestShardCountInvarianceOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := graph.Grid(5, 8)
	run := func(shards int) ([]int64, Metrics) {
		out := make([]int64, g.N())
		m, err := RunStep(g, Config{Seed: 5, Shards: shards}, func(env *Env) StepProgram {
			return newStepChatter(env, out)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, m
	}
	wantOut, wantM := run(1)
	gotOut, gotM := run(7)
	if !reflect.DeepEqual(gotOut, wantOut) || gotM != wantM {
		t.Fatalf("Shards 7 under GOMAXPROCS(1): metrics %+v, want %+v (results equal: %v)",
			gotM, wantM, reflect.DeepEqual(gotOut, wantOut))
	}
}

// TestShardCountInvariancePollsOnlyWithSpareP: the pool and the coordinator
// poll only when every one of them has a P to itself.
func TestShardCountInvariancePollsOnlyWithSpareP(t *testing.T) {
	g := graph.Grid(5, 8)
	for _, c := range []struct{ procs, shards int }{{1, 7}, {1, 2}, {2, 2}, {2, 3}, {4, 4}, {4, 1}} {
		prev := runtime.GOMAXPROCS(c.procs)
		st, err := NewStepper(g, Config{Shards: c.shards}, func(*Env) StepProgram { return &Loop{Rounds: 3} })
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.shards > 1 && c.shards <= c.procs; st.eng.poll != want {
			t.Errorf("GOMAXPROCS %d, Shards %d: poll %v, want %v", c.procs, c.shards, st.eng.poll, want)
		}
		if _, err := st.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}
