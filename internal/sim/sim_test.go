package sim

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// The tests of this file pin the model contract — delivery, caps,
// violations, accounting, randomness — on every engine alike.

// onEngines runs f once per engine; EngineDist routes through the in-process
// sortingRouter (dist_test.go).
func onEngines(t *testing.T, f func(t *testing.T, eng Engine)) {
	t.Helper()
	for _, eng := range []Engine{EngineStep, EngineLegacy, EngineDist} {
		t.Run(eng.String(), func(t *testing.T) { f(t, eng) })
	}
}

// oneRound is the machine of the commonest test body: stage sends, take one
// barrier, look at what arrived. Either half may be nil.
func oneRound(send func(env *Env), recv func(env *Env, in Inbox)) StepFactory {
	return func(*Env) StepProgram {
		l := &Loop{Rounds: 1}
		if send != nil {
			l.Send = func(env *Env, _ int) { send(env) }
		}
		if recv != nil {
			l.Recv = func(env *Env, in Inbox, _ int) { recv(env, in) }
		}
		return l
	}
}

// idle is the machine that takes `rounds` barriers and does nothing else.
func idle(rounds int) StepProgram { return &Loop{Rounds: rounds} }

func TestLog2Ceil(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := Log2Ceil(tt.n); got != tt.want {
			t.Fatalf("Log2Ceil(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestEmptyGraphRun(t *testing.T) {
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(graph.New(0), Config{Engine: eng}, func(*Env) StepProgram { return idle(3) })
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != 0 {
			t.Fatalf("Rounds = %d, want 0", m.Rounds)
		}
	})
}

func TestSingleNodeNoSteps(t *testing.T) {
	onEngines(t, func(t *testing.T, eng Engine) {
		ran := false
		m, err := RunStep(graph.New(1), Config{Engine: eng}, func(*Env) StepProgram {
			return StepFunc(func(*Env) bool { ran = true; return true })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("machine did not run")
		}
		if m.Rounds != 0 {
			t.Fatalf("Rounds = %d, want 0 (no barrier taken)", m.Rounds)
		}
	})
}

func TestRoundCountMatchesSteps(t *testing.T) {
	const steps = 7
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(graph.Path(5), Config{Engine: eng}, func(*Env) StepProgram { return idle(steps) })
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != steps {
			t.Fatalf("Rounds = %d, want %d", m.Rounds, steps)
		}
	})
}

func TestUnevenStepCounts(t *testing.T) {
	// Node 0 takes 10 barriers, everyone else 3: rounds = 10 and the run
	// terminates.
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(graph.Path(4), Config{Engine: eng}, func(env *Env) StepProgram {
			if env.ID() == 0 {
				return idle(10)
			}
			return idle(3)
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != 10 {
			t.Fatalf("Rounds = %d, want 10", m.Rounds)
		}
	})
}

// TestLocalFloodBFS runs distributed BFS over the local mode only:
// hop-distance labels spread one hop per round, validating both delivery
// and the round abstraction against the LOCAL model's Theta(D) behavior.
func TestLocalFloodBFS(t *testing.T) {
	g := graph.Grid(5, 6)
	want := graph.BFS(g, 0)
	onEngines(t, func(t *testing.T, eng Engine) {
		dist := make([]int64, g.N())
		_, err := RunStep(g, Config{Seed: 1, Engine: eng}, func(env *Env) StepProgram {
			const rounds = 10 // >= diameter of 5x6 grid (9)
			my := int64(graph.Inf)
			if env.ID() == 0 {
				my = 0
			}
			return &Loop{
				Rounds: rounds,
				Send: func(env *Env, _ int) {
					if my < graph.Inf {
						env.BroadcastLocal(my)
					}
				},
				Recv: func(env *Env, in Inbox, i int) {
					for _, lm := range in.Local {
						if d, ok := lm.Payload.(int64); ok && d+1 < my {
							my = d + 1
						}
					}
					dist[env.ID()] = my
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range dist {
			if dist[v] != want[v] {
				t.Fatalf("BFS dist[%d] = %d, want %d", v, dist[v], want[v])
			}
		}
	})
}

func TestGlobalMessageDelivery(t *testing.T) {
	// Every node sends one global message to (id+1) mod n; everyone should
	// receive exactly one, from (id-1) mod n, with intact fields.
	const n = 16
	g := graph.Path(n)
	onEngines(t, func(t *testing.T, eng Engine) {
		got := make([]GlobalMsg, n)
		counts := make([]int, n)
		m, err := RunStep(g, Config{Seed: 2, Engine: eng}, oneRound(
			func(env *Env) { env.SendGlobal((env.ID()+1)%n, 7, int64(env.ID()), 100, -3, 42) },
			func(env *Env, in Inbox) {
				counts[env.ID()] = len(in.Global)
				if len(in.Global) == 1 {
					got[env.ID()] = in.Global[0]
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if counts[v] != 1 {
				t.Fatalf("node %d received %d global messages, want 1", v, counts[v])
			}
			from := (v - 1 + n) % n
			gm := got[v]
			if gm.Src != from || gm.Dst != v || gm.Kind != 7 || gm.F0 != int64(from) || gm.F1 != 100 || gm.F2 != -3 || gm.F3 != 42 {
				t.Fatalf("node %d got corrupted message %+v", v, gm)
			}
		}
		if m.GlobalMsgs != n {
			t.Fatalf("GlobalMsgs = %d, want %d", m.GlobalMsgs, n)
		}
		if m.MaxGlobalSend != 1 || m.MaxGlobalRecv != 1 {
			t.Fatalf("MaxGlobalSend/Recv = %d/%d, want 1/1", m.MaxGlobalSend, m.MaxGlobalRecv)
		}
	})
}

func TestGlobalSendCapEnforced(t *testing.T) {
	g := graph.Path(8) // logN = 3, cap = 3 with factor 1
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(g, Config{Seed: 3, Engine: eng}, oneRound(func(env *Env) {
			if env.ID() == 0 {
				for i := 0; i < env.GlobalCap()+1; i++ {
					env.SendGlobal(1, 0, 0, 0, 0, 0)
				}
			}
		}, nil))
		if err == nil || !strings.Contains(err.Error(), "exceeded global send cap") {
			t.Fatalf("err = %v, want send-cap violation", err)
		}
	})
}

func TestGlobalSendCapFactor(t *testing.T) {
	g := graph.Path(8)
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(g, Config{Seed: 3, GlobalSendFactor: 4, Engine: eng}, oneRound(func(env *Env) {
			if env.ID() == 0 {
				for i := 0; i < env.GlobalCap(); i++ {
					env.SendGlobal(1, 0, 0, 0, 0, 0)
				}
			}
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if m.MaxGlobalSend != 4*Log2Ceil(8) {
			t.Fatalf("MaxGlobalSend = %d, want %d", m.MaxGlobalSend, 4*Log2Ceil(8))
		}
	})
}

func TestGlobalBudget(t *testing.T) {
	g := graph.Path(4)
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(g, Config{Seed: 1, Engine: eng}, oneRound(
			func(env *Env) {
				cap0 := env.GlobalBudget()
				env.SendGlobal(0, 0, 0, 0, 0, 0)
				if env.GlobalBudget() != cap0-1 {
					t.Errorf("budget did not decrease")
				}
			},
			func(env *Env, _ Inbox) {
				if env.GlobalBudget() != env.GlobalCap() {
					t.Errorf("budget did not reset after the barrier")
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestLocalNonNeighborRejected(t *testing.T) {
	g := graph.Path(5) // 0 and 4 are not adjacent
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(g, Config{Engine: eng}, oneRound(func(env *Env) {
			if env.ID() == 0 {
				env.SendLocal(4, "x")
			}
		}, nil))
		if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
			t.Fatalf("err = %v, want non-neighbor violation", err)
		}
	})
}

func TestInvalidGlobalDestination(t *testing.T) {
	g := graph.Path(3)
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(g, Config{Engine: eng}, oneRound(func(env *Env) {
			if env.ID() == 0 {
				env.SendGlobal(99, 0, 0, 0, 0, 0)
			}
		}, nil))
		if err == nil || !strings.Contains(err.Error(), "invalid node") {
			t.Fatalf("err = %v, want invalid-destination violation", err)
		}
	})
}

func TestProgramPanicCaptured(t *testing.T) {
	g := graph.Path(3)
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(g, Config{Engine: eng}, func(*Env) StepProgram {
			return &Loop{Rounds: 100, Recv: func(env *Env, _ Inbox, i int) {
				if env.ID() == 1 && i == 0 {
					panic("boom")
				}
			}, Send: func(*Env, int) {}}
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want captured panic", err)
		}
	})
}

func TestMaxRoundsGuard(t *testing.T) {
	g := graph.Path(2)
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(g, Config{MaxRounds: 50, Engine: eng}, func(*Env) StepProgram {
			return StepFunc(func(*Env) bool { return false }) // would run forever without the guard
		})
		if !errors.Is(err, ErrTooManyRounds) {
			t.Fatalf("err = %v, want ErrTooManyRounds", err)
		}
	})
}

// floodNode0 has everybody but node 0 send it one global message: receive
// load n-1.
var floodNode0 = oneRound(func(env *Env) {
	if env.ID() != 0 {
		env.SendGlobal(0, 0, 0, 0, 0, 0)
	}
}, nil)

func TestRecvLoadRecordedWithoutStrict(t *testing.T) {
	g := graph.Path(64)
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(g, Config{Engine: eng}, floodNode0)
		if err != nil {
			t.Fatal(err)
		}
		if m.MaxGlobalRecv != 63 {
			t.Fatalf("MaxGlobalRecv = %d, want 63", m.MaxGlobalRecv)
		}
	})
}

func TestCutAccounting(t *testing.T) {
	// Nodes 0..3 are Alice, 4..7 Bob. Each node sends one message to its
	// mirror (i+4)%8: all 8 messages cross the cut. Local messages between
	// 3 and 4 do not count.
	g := graph.Path(8)
	cut := make([]bool, 8)
	for i := 0; i < 4; i++ {
		cut[i] = true
	}
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(g, Config{Cut: cut, Engine: eng}, oneRound(func(env *Env) {
			env.SendGlobal((env.ID()+4)%8, 0, 0, 0, 0, 0)
			if env.ID() == 3 {
				env.SendLocal(4, "local crossing, not counted")
			}
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if m.CutGlobalMsgs != 8 {
			t.Fatalf("CutGlobalMsgs = %d, want 8", m.CutGlobalMsgs)
		}
		if m.CutGlobalBits != 8*(6*int64(Log2Ceil(8))+16) {
			t.Fatalf("CutGlobalBits = %d unexpected", m.CutGlobalBits)
		}
	})
}

func TestCutSizeMismatch(t *testing.T) {
	onEngines(t, func(t *testing.T, eng Engine) {
		_, err := RunStep(graph.Path(4), Config{Cut: []bool{true}, Engine: eng}, func(*Env) StepProgram { return idle(0) })
		if err == nil {
			t.Fatal("want error for mismatched cut size")
		}
	})
}

func TestDeterminism(t *testing.T) {
	onEngines(t, func(t *testing.T, eng Engine) {
		run := func() []int64 {
			g := graph.Grid(4, 4)
			out := make([]int64, g.N())
			_, err := RunStep(g, Config{Seed: 99, Engine: eng}, func(*Env) StepProgram {
				acc := int64(0)
				return &Loop{
					Rounds: 5,
					Send: func(env *Env, _ int) {
						env.SendGlobal(env.Rand().Intn(env.N()), 1, int64(env.ID()), 0, 0, 0)
					},
					Recv: func(env *Env, in Inbox, _ int) {
						for _, m := range in.Global {
							acc = acc*31 + m.F0
						}
						out[env.ID()] = acc
					},
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d diverged between identical runs: %d vs %d", i, a[i], b[i])
			}
		}
	})
}

func TestPublicRandShared(t *testing.T) {
	g := graph.Path(6)
	onEngines(t, func(t *testing.T, eng Engine) {
		vals := make([]uint64, 6)
		_, err := RunStep(g, Config{Seed: 5, Engine: eng}, func(env *Env) StepProgram {
			vals[env.ID()] = env.PublicRand("coin").Uint64()
			return idle(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 6; i++ {
			if vals[i] != vals[0] {
				t.Fatalf("public randomness differs between nodes: %d vs %d", vals[i], vals[0])
			}
		}
	})
}

func TestPerNodeRandDiffers(t *testing.T) {
	g := graph.Path(6)
	onEngines(t, func(t *testing.T, eng Engine) {
		vals := make([]uint64, 6)
		_, err := RunStep(g, Config{Seed: 5, Engine: eng}, func(env *Env) StepProgram {
			vals[env.ID()] = env.Rand().Uint64()
			return idle(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 6; i++ {
			if vals[i] == vals[0] {
				t.Fatalf("node %d shares node 0's private stream", i)
			}
		}
	})
}

func TestEarlyFinishersDoNotBlock(t *testing.T) {
	// Half the nodes finish immediately; the others exchange messages for
	// several rounds. The run must terminate and deliver correctly.
	g := graph.Complete(10)
	onEngines(t, func(t *testing.T, eng Engine) {
		var survived int32
		_, err := RunStep(g, Config{Seed: 8, Engine: eng}, func(env *Env) StepProgram {
			if env.ID()%2 == 0 {
				return idle(0)
			}
			return Then(&Loop{Rounds: 5, Send: func(env *Env, r int) { env.BroadcastLocal(r) }},
				func(*Env) { atomic.AddInt32(&survived, 1) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if survived != 5 {
			t.Fatalf("survived = %d, want 5", survived)
		}
	})
}

func TestInboxOrderingDeterministic(t *testing.T) {
	// Global inbox is ordered by sender ID.
	g := graph.Path(8)
	onEngines(t, func(t *testing.T, eng Engine) {
		var order []int
		_, err := RunStep(g, Config{Engine: eng}, oneRound(
			func(env *Env) {
				if env.ID() != 0 {
					env.SendGlobal(0, 0, int64(env.ID()), 0, 0, 0)
				}
			},
			func(env *Env, in Inbox) {
				if env.ID() == 0 {
					for _, m := range in.Global {
						order = append(order, m.Src)
					}
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(order); i++ {
			if order[i] <= order[i-1] {
				t.Fatalf("inbox not sorted by sender: %v", order)
			}
		}
		if len(order) != 7 {
			t.Fatalf("node 0 received %d messages, want 7", len(order))
		}
	})
}

func TestMessageBitsAreLogarithmic(t *testing.T) {
	g := graph.Path(1024)
	onEngines(t, func(t *testing.T, eng Engine) {
		m, err := RunStep(g, Config{Engine: eng}, oneRound(func(env *Env) {
			if env.ID() == 0 {
				env.SendGlobal(1, 0, 0, 0, 0, 0)
			}
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
		logN := int64(Log2Ceil(1024))
		if m.GlobalBits != 6*logN+16 {
			t.Fatalf("GlobalBits = %d, want %d", m.GlobalBits, 6*logN+16)
		}
	})
}

func BenchmarkGlobalTraffic(b *testing.B) {
	g := graph.Path(256)
	rng := rand.New(rand.NewSource(1))
	targets := make([]int, 256)
	for i := range targets {
		targets[i] = rng.Intn(256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunStep(g, Config{}, func(*Env) StepProgram {
			return &Loop{Rounds: 20, Send: func(env *Env, _ int) { env.SendGlobal(targets[env.ID()], 0, 1, 2, 3, 4) }}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestSharedOnceSingleEvaluation(t *testing.T) {
	g := graph.Path(8)
	onEngines(t, func(t *testing.T, eng Engine) {
		var evals int32
		vals := make([]int, 8)
		_, err := RunStep(g, Config{Engine: eng}, func(env *Env) StepProgram {
			v := env.SharedOnce("test", func() interface{} {
				atomic.AddInt32(&evals, 1)
				return 42
			})
			vals[env.ID()] = v.(int)
			return idle(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if evals != 1 {
			t.Fatalf("fn evaluated %d times, want 1", evals)
		}
		for id, v := range vals {
			if v != 42 {
				t.Fatalf("node %d got %d", id, v)
			}
		}
	})
}

func TestSharedOncePerCallSequence(t *testing.T) {
	// The i-th call with a prefix resolves to the i-th shared value, so
	// successive collective calls get fresh objects.
	g := graph.Path(4)
	onEngines(t, func(t *testing.T, eng Engine) {
		firsts := make([]int, 4)
		seconds := make([]int, 4)
		var counter int32
		mk := func() interface{} { return int(atomic.AddInt32(&counter, 1)) }
		_, err := RunStep(g, Config{Engine: eng}, oneRound(
			func(env *Env) { firsts[env.ID()] = env.SharedOnce("seq", mk).(int) },
			func(env *Env, _ Inbox) { seconds[env.ID()] = env.SharedOnce("seq", mk).(int) }))
		if err != nil {
			t.Fatal(err)
		}
		for id := range firsts {
			if firsts[id] != firsts[0] || seconds[id] != seconds[0] {
				t.Fatalf("node %d disagrees on shared values", id)
			}
		}
		if firsts[0] == seconds[0] {
			t.Fatal("second collective call reused the first value")
		}
	})
}

func TestSharedOnceDistinctPrefixes(t *testing.T) {
	g := graph.Path(3)
	onEngines(t, func(t *testing.T, eng Engine) {
		var got [2]int
		_, err := RunStep(g, Config{Engine: eng}, func(env *Env) StepProgram {
			a := env.SharedOnce("pa", func() interface{} { return 1 }).(int)
			b := env.SharedOnce("pb", func() interface{} { return 2 }).(int)
			if env.ID() == 0 {
				got[0], got[1] = a, b
			}
			return idle(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 1 || got[1] != 2 {
			t.Fatalf("prefixes collided: %v", got)
		}
	})
}
