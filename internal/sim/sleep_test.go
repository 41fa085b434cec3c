package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Tests of the step engine's sleeping nodes and quiet-round fast-forward
// (see "Sleeping nodes" in step.go). Every test runs the same machines
// twice — once declaring their schedule through Loop.NextSend, once not —
// and requires the two runs to be indistinguishable from outside.

// stepLoopEngines are the engines that run the step loop, and so sleep and
// fast-forward.
var stepLoopEngines = []Engine{EngineStep, EngineDist}

// never is a Send that stages nothing: it keeps a Loop from sleeping (a nil
// Send would opt it in) without changing what the Loop does.
func never(*Env, int) {}

// idleLoop is a Loop that only listens for `rounds` rounds.
func idleLoop(rounds int, sleepy bool, recv func(env *Env, in Inbox, i int)) *Loop {
	l := &Loop{Rounds: rounds, Recv: recv}
	if !sleepy {
		l.Send = never
	}
	return l
}

// everyKth is the NextSend of a sender that stages in iterations ≡ r mod k.
func everyKth(k, r int) func(int) int {
	return func(i int) int { return i + ((r-i)%k+k)%k }
}

// declared returns f if the run under test declares its schedules, nil (the
// loop is then called every round) if not.
func declared(sleepy bool, f func(int) int) func(int) int {
	if sleepy {
		return f
	}
	return nil
}

// sleepMix builds a node that exercises every kind of machine at once: by
// ID mod 3 a reactive flood, a scheduled global sender, or a StepFunc that
// never declares anything; then, for everybody, a flood with a long quiet
// tail and a pure listening phase. acc folds in everything received,
// stamped with the round it was read in.
func sleepMix(env *Env, out []int64, sleepy bool) StepProgram {
	id, n := env.ID(), env.N()
	acc := int64(id)
	note := func(env *Env, in Inbox) {
		for _, lm := range in.Local {
			acc = acc*31 + int64(lm.From)*131 + int64(env.Round())
		}
		for _, gm := range in.Global {
			acc = acc*31 + int64(gm.Src)*8191 + gm.F0 + int64(env.Round())
		}
	}
	flood := func(rounds int, source bool) *Loop {
		fresh := source
		return &Loop{
			Rounds:   rounds,
			NextSend: declared(sleepy, Reactive),
			Send: func(env *Env, i int) {
				if fresh {
					env.BroadcastLocal(int64(i))
					fresh = false
				}
			},
			Recv: func(env *Env, in Inbox, i int) {
				note(env, in)
				fresh = len(in.Local) > 0 && i < 9 // the wave dies after 9 hops
			},
		}
	}
	first := func(env *Env) StepProgram {
		switch id % 3 {
		case 0:
			return flood(25, id == 0)
		case 1:
			return &Loop{
				Rounds:   25,
				NextSend: declared(sleepy, everyKth(7, 3)),
				Send: func(env *Env, i int) {
					if i%7 == 3 {
						env.SendGlobal((id+i)%n, Kind(1), int64(i), 0, 0, 0)
					}
				},
				Recv: func(env *Env, in Inbox, i int) { note(env, in) },
			}
		default:
			i := 0
			return StepFunc(func(env *Env) bool {
				note(env, env.Incoming())
				if i == 25 {
					return true
				}
				if i%4 == 0 {
					env.BroadcastLocal(int64(-i))
				}
				i++
				return false
			})
		}
	}
	return Sequence(
		first,
		func(env *Env) StepProgram { return flood(60, id == n-1) },
		func(env *Env) StepProgram {
			return idleLoop(33, sleepy, func(env *Env, in Inbox, i int) { note(env, in) })
		},
		Finish(func(env *Env) { out[id] = acc }),
	)
}

// TestSleepingChangesNothing: results, every Metrics field and the OnRound
// sequence are equal with and without sleeping, at every shard
// setting, and equal to what the legacy engine produces from the same
// machines (where the sleep-contract check runs on every call).
func TestSleepingChangesNothing(t *testing.T) {
	g := graph.Grid(6, 7)
	run := func(cfg Config, sleepy bool) ([]int64, Metrics, []int) {
		t.Helper()
		out := make([]int64, g.N())
		var ticks []int
		cfg.Seed = 5
		cfg.OnRound = func(r int) { ticks = append(ticks, r) }
		m, err := RunStep(g, cfg, func(env *Env) StepProgram { return sleepMix(env, out, sleepy) })
		if err != nil {
			t.Fatalf("%+v sleepy=%v: %v", cfg, sleepy, err)
		}
		return out, m, ticks
	}
	wantOut, wantM, wantTicks := run(Config{Engine: EngineStep, Shards: 1}, false)
	if wantM.Rounds != 25+60+33 {
		t.Fatalf("baseline took %d rounds, want %d", wantM.Rounds, 25+60+33)
	}
	for i, r := range wantTicks {
		if r != i+1 {
			t.Fatalf("baseline OnRound tick %d reported round %d", i, r)
		}
	}
	for _, cfg := range []Config{
		{Engine: EngineStep, Shards: 1},
		{Engine: EngineStep, Shards: 4},
		{Engine: EngineStep, Shards: 3},
		{Engine: EngineDist, DistWorkers: 1},
		{Engine: EngineDist, DistWorkers: 3},
		{Engine: EngineLegacy},
	} {
		out, m, ticks := run(cfg, true)
		if !reflect.DeepEqual(out, wantOut) {
			t.Errorf("%+v: sleeping changed the results", cfg)
		}
		if m != wantM {
			t.Errorf("%+v: sleeping changed the metrics: %+v, want %+v", cfg, m, wantM)
		}
		if !reflect.DeepEqual(ticks, wantTicks) {
			t.Errorf("%+v: OnRound ticked %v, want every round once in order (%d ticks)", cfg, ticks, len(wantTicks))
		}
	}
}

// TestSleeperWokenInTheRoundItWouldHaveRead: a message addressed to a
// sleeper reaches its Recv in exactly the round — and with exactly the loop
// index — a run without sleeping reads it in.
func TestSleeperWokenInTheRoundItWouldHaveRead(t *testing.T) {
	g := graph.Path(3)
	run := func(eng Engine, sleepy bool) []string {
		var seen []string
		// One shard: every node appends to seen.
		_, err := RunStep(g, Config{Engine: eng, DistWorkers: 1}, func(env *Env) StepProgram {
			if env.ID() == 0 {
				return &Loop{
					Rounds:   40,
					NextSend: declared(sleepy, everyKth(13, 10)),
					Send: func(env *Env, i int) {
						if i%13 == 10 {
							env.SendLocal(1, int64(i))
							env.SendGlobal(2, Kind(3), int64(i), 0, 0, 0)
						}
					},
				}
			}
			return idleLoop(40, sleepy, func(env *Env, in Inbox, i int) {
				for _, lm := range in.Local {
					seen = append(seen, fmt.Sprintf("node %d round %d index %d local %v", env.ID(), env.Round(), i, lm.Payload))
				}
				for _, gm := range in.Global {
					seen = append(seen, fmt.Sprintf("node %d round %d index %d global %d", env.ID(), env.Round(), i, gm.F0))
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want := []string{
		"node 1 round 11 index 10 local 10", "node 2 round 11 index 10 global 10",
		"node 1 round 24 index 23 local 23", "node 2 round 24 index 23 global 23",
		"node 1 round 37 index 36 local 36", "node 2 round 37 index 36 global 36",
	}
	for _, eng := range stepLoopEngines {
		if got := run(eng, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v without sleeping: %q, want %q", eng, got, want)
		}
		if got := run(eng, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%v with sleeping: %q, want %q", eng, got, want)
		}
	}
}

// TestSleeperWakesToEmptyInbox: a sleeper woken by its schedule — after an
// odd and after an even number of skipped rounds — reads an empty inbox, not
// the messages of the rounds before the skip.
func TestSleeperWakesToEmptyInbox(t *testing.T) {
	g := graph.Path(2)
	for _, tc := range []struct {
		eng  Engine
		wake int
	}{{EngineStep, 10}, {EngineStep, 11}, {EngineDist, 10}, {EngineDist, 11}} {
		wake := tc.wake
		var reads []string
		_, err := RunStep(g, Config{Engine: tc.eng}, func(env *Env) StepProgram {
			if env.ID() == 0 {
				return &Loop{
					Rounds: 30,
					NextSend: func(i int) int {
						if i < 2 {
							return i
						}
						return 30
					},
					Send: func(env *Env, i int) {
						if i < 2 { // one message in each of rounds 0 and 1
							env.SendLocal(1, int64(i))
							env.SendGlobal(1, Kind(1), int64(i), 0, 0, 0)
						}
					},
				}
			}
			return &Loop{
				Rounds:   30,
				NextSend: func(i int) int { return max(i, wake) },
				Send:     never,
				Recv: func(env *Env, in Inbox, i int) {
					reads = append(reads, fmt.Sprintf("round %d: %d local %d global", env.Round(), len(in.Local), len(in.Global)))
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"round 1: 1 local 1 global", "round 2: 1 local 1 global"}
		for r := wake; r <= 30; r++ {
			want = append(want, fmt.Sprintf("round %d: 0 local 0 global", r))
		}
		if !reflect.DeepEqual(reads, want) {
			t.Errorf("%v: wake-up at round %d read %q, want %q", tc.eng, wake, reads, want)
		}
	}
}

// TestFastForwardHonoursMaxRoundsAndCtx: MaxRounds reached, or the context
// cancelled, in the middle of a stretch the engine skips ends the run with
// the same error, the same Metrics.Rounds and the same last OnRound tick as
// in a run that executes every round.
func TestFastForwardHonoursMaxRoundsAndCtx(t *testing.T) {
	g := graph.Grid(3, 3)
	run := func(eng Engine, sleepy, cancelAt20 bool) (Metrics, error, int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		last := 0
		cfg := Config{Engine: eng, Ctx: ctx, OnRound: func(r int) {
			last = r
			if cancelAt20 && r == 20 {
				cancel()
			}
		}}
		if !cancelAt20 {
			cfg.MaxRounds = 37
		}
		m, err := RunStep(g, cfg, func(env *Env) StepProgram { return idleLoop(100, sleepy, nil) })
		return m, err, last
	}
	for _, eng := range stepLoopEngines {
		for _, cancelAt20 := range []bool{false, true} {
			wantM, wantErr, wantLast := run(eng, false, cancelAt20)
			gotM, gotErr, gotLast := run(eng, true, cancelAt20)
			target := error(ErrTooManyRounds)
			if cancelAt20 {
				target = context.Canceled
			}
			if !errors.Is(wantErr, target) || !errors.Is(gotErr, target) {
				t.Fatalf("%v cancel=%v: errors %v / %v, want both to wrap %v", eng, cancelAt20, wantErr, gotErr, target)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%v cancel=%v: error %q, want %q", eng, cancelAt20, gotErr, wantErr)
			}
			if gotM != wantM || gotLast != wantLast {
				t.Errorf("%v cancel=%v: skipped run stopped at metrics %+v tick %d, executed run at %+v tick %d",
					eng, cancelAt20, gotM, gotLast, wantM, wantLast)
			}
		}
	}
}

// TestFinishedNodeNeverBlocksFastForward: a node that is done is not a node
// that is awake — with one node finished at once and the rest idle, a
// single iteration of the step loop covers the whole idle stretch, and the
// sleepers' machines are called twice (first and last iteration).
func TestFinishedNodeNeverBlocksFastForward(t *testing.T) {
	g := graph.Grid(4, 4)
	calls := make([]int, g.N())
	st, err := NewStepper(g, Config{Engine: EngineStep, Shards: 1}, func(env *Env) StepProgram {
		if env.ID() == 5 {
			return StepFunc(func(*Env) bool { return true })
		}
		l := &Loop{Rounds: 1000}
		id := env.ID()
		return StepFunc(func(env *Env) bool { calls[id]++; return l.Step(env) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.eng.stepAdvance(math.MaxInt) || st.eng.generation != 1000 {
		t.Fatalf("one step-loop iteration over an all-idle network reached round %d, want 1000", st.eng.generation)
	}
	m, err := st.Finish()
	if err != nil || m.Rounds != 1000 {
		t.Fatalf("finished with %+v, %v; want 1000 rounds", m, err)
	}
	for id, c := range calls {
		if want := 2; id != 5 && c != want {
			t.Errorf("node %d's machine was called %d times, want %d", id, c, want)
		}
	}
}

// TestStepperAdvanceCountsRounds: Advance(r) advances r rounds whether they
// are executed or skipped, so a harness lands where it aimed.
func TestStepperAdvanceCountsRounds(t *testing.T) {
	g := graph.Path(4)
	st, err := NewStepper(g, Config{Engine: EngineStep}, func(env *Env) StepProgram { return &Loop{Rounds: 500} })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 7, 100} {
		before := st.eng.generation
		if st.Advance(r) || st.eng.generation != before+r {
			t.Fatalf("Advance(%d) from round %d landed on round %d", r, before, st.eng.generation)
		}
	}
	if m, err := st.Finish(); err != nil || m.Rounds != 500 {
		t.Fatalf("finished with %+v, %v; want 500 rounds", m, err)
	}
}

// lyingLoop declares itself idle until iteration 9 and sends in iteration 4.
func lyingLoop(env *Env) StepProgram {
	return &Loop{
		Rounds:   12,
		NextSend: func(i int) int { return max(i, 9) },
		Send: func(env *Env, i int) {
			if i == 4 && env.ID() == 2 {
				env.BroadcastLocal(int64(i))
			}
		},
	}
}

// TestSleepContractChecked: a Loop whose NextSend promised silence and whose
// Send then staged a message on an empty inbox fails the run by name on the
// legacy engine, which calls every machine every round. (The step engine
// believes the declaration — it never makes the call — which is exactly the
// silent divergence the check exists to catch.)
func TestSleepContractChecked(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(g, Config{Engine: EngineLegacy}, lyingLoop)
	want := "sim: node 2 sent in loop iteration 4 after declaring idle until 9"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("lying Loop ended with %v, want %q", err, want)
	}
	// A message that arrives voids the declaration: answering it is legal.
	_, err = RunStep(g, Config{Engine: EngineLegacy}, func(env *Env) StepProgram {
		echo := false
		return &Loop{
			Rounds:   12,
			NextSend: func(i int) int { return max(i, 12) },
			Send: func(env *Env, i int) {
				if echo || (i == 0 && env.ID() == 0) {
					env.BroadcastLocal(int64(i))
				}
			},
			Recv: func(env *Env, in Inbox, i int) { echo = len(in.Local) > 0 && i < 6 },
		}
	})
	if err != nil {
		t.Errorf("answering a message inside a declared-idle stretch failed the run: %v", err)
	}
}
