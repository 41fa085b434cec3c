package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// stepChatter is chatterProgram as a machine: same messages, same
// randomness, same uneven finishing times, same accumulator.
type stepChatter struct {
	out    []int64
	rounds int
	acc    int64
	i      int
}

func newStepChatter(env *Env, out []int64) *stepChatter {
	return &stepChatter{out: out, rounds: 6 + env.ID()%5, acc: int64(env.ID())}
}

func (c *stepChatter) Step(env *Env) bool {
	if c.i > 0 {
		in := env.Incoming()
		for _, lm := range in.Local {
			c.acc = c.acc*31 + int64(lm.From)
			if v, ok := lm.Payload.(int64); ok {
				c.acc = c.acc*31 + v
			}
		}
		for _, gm := range in.Global {
			c.acc = c.acc*31 + int64(gm.Src)*8191 + gm.F1*13 + gm.F2
		}
	}
	if c.i == c.rounds {
		c.out[env.ID()] = c.acc
		return true
	}
	r := c.i
	for _, nb := range env.Neighbors() {
		if env.Rand().Intn(2) == 0 {
			env.SendLocal(nb.To, int64(env.ID()*1000+r))
		}
	}
	sends := env.Rand().Intn(env.GlobalCap() + 1)
	for s := 0; s < sends; s++ {
		env.SendGlobal(env.Rand().Intn(env.N()), Kind(r), int64(env.ID()), int64(r), int64(s), 7)
	}
	c.i++
	return false
}

// TestStepNativeAgrees holds the chatter machine, on both in-process
// engines, to the blocking chatterProgram on the legacy engine: three
// executions, one answer. It is the one place the two forms of a whole
// workload still meet.
func TestStepNativeAgrees(t *testing.T) {
	g := graph.Grid(6, 7)
	for seed := int64(1); seed <= 3; seed++ {
		oracleOut := make([]int64, g.N())
		oracleM, err := runLegacy(g, Config{Seed: seed}, chatterProgram(oracleOut))
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineLegacy, EngineStep} {
			out, m := runChatter(t, g, Config{Seed: seed, Engine: eng})
			if !reflect.DeepEqual(oracleOut, out) {
				t.Fatalf("seed %d engine %s: machine results differ from the blocking oracle", seed, eng)
			}
			if oracleM != m {
				t.Fatalf("seed %d engine %s: metrics differ: %+v vs %+v", seed, eng, oracleM, m)
			}
		}
	}
}

// TestStepShardCountInvariance: the step loop's shard-parallel batches must
// not change results or Metrics (TestShardCountInvariance covers two more
// topologies).
func TestStepShardCountInvariance(t *testing.T) {
	g := graph.Grid(5, 8)
	base := make([]int64, g.N())
	baseM, err := RunStep(g, Config{Seed: 11, Engine: EngineStep, Shards: 1}, func(env *Env) StepProgram {
		return newStepChatter(env, base)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 7, 16, 40, 1000} {
		out := make([]int64, g.N())
		m, err := RunStep(g, Config{Seed: 11, Engine: EngineStep, Shards: shards}, func(env *Env) StepProgram {
			return newStepChatter(env, out)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, out) {
			t.Fatalf("shards=%d: results differ from shards=1", shards)
		}
		if m != baseM {
			t.Fatalf("shards=%d: metrics differ: %+v vs %+v", shards, m, baseM)
		}
	}
}

// TestLoopSemantics pins the Loop contract: Recv for round i-1 before Send
// for round i, exactly Rounds round barriers, mid-segment finish.
func TestLoopSemantics(t *testing.T) {
	g := graph.Path(2)
	var trace []string
	m, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		if env.ID() != 0 {
			return &Loop{Rounds: 3}
		}
		return &Loop{
			Rounds: 3,
			Send:   func(env *Env, i int) { trace = append(trace, fmt.Sprintf("send%d", i)) },
			Recv:   func(env *Env, in Inbox, i int) { trace = append(trace, fmt.Sprintf("recv%d", i)) },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"send0", "recv0", "send1", "recv1", "send2", "recv2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if m.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", m.Rounds)
	}
	// A zero-round Loop consumes no barriers at all.
	m, err = RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return &Loop{Rounds: 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 {
		t.Fatalf("zero-round loop took %d rounds", m.Rounds)
	}
}

// TestSequenceMidSegmentHandoff: two chained loops must behave exactly like
// the blocking program that runs the two "send; barrier; receive" loops back
// to back — the second phase's first sends share a round with the first
// phase's last receive.
func TestSequenceMidSegmentHandoff(t *testing.T) {
	g := graph.Path(6)
	oracle := make([]int, g.N())
	oracleM, err := runLegacy(g, Config{Seed: 2}, func(env *Env) {
		got := 0
		for i := 0; i < 2; i++ { // phase A: flood own ID right for 2 rounds
			if env.ID()+1 < env.N() {
				env.SendLocal(env.ID()+1, int64(env.ID()))
			}
			in := env.barrier()
			got += len(in.Local)
		}
		for i := 0; i < 2; i++ { // phase B: flood left
			if env.ID() > 0 {
				env.SendLocal(env.ID()-1, int64(env.ID()))
			}
			in := env.barrier()
			got += len(in.Local)
		}
		oracle[env.ID()] = got
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineLegacy, EngineStep} {
		out := make([]int, g.N())
		m, err := RunStep(g, Config{Seed: 2, Engine: eng}, func(env *Env) StepProgram {
			got := 0
			mk := func(right bool) *Loop {
				return &Loop{
					Rounds: 2,
					Send: func(env *Env, i int) {
						if right && env.ID()+1 < env.N() {
							env.SendLocal(env.ID()+1, int64(env.ID()))
						}
						if !right && env.ID() > 0 {
							env.SendLocal(env.ID()-1, int64(env.ID()))
						}
					},
					Recv: func(env *Env, in Inbox, i int) { got += len(in.Local) },
				}
			}
			return Sequence(
				func(env *Env) StepProgram { return mk(true) },
				func(env *Env) StepProgram { return mk(false) },
				Finish(func(env *Env) { out[env.ID()] = got }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, out) {
			t.Fatalf("engine %s: handoff results differ: %v vs %v", eng, out, oracle)
		}
		if m != oracleM {
			t.Fatalf("engine %s: metrics differ: %+v vs %+v", eng, m, oracleM)
		}
	}
}

// TestStepProgramMustNotCallEnvStep: the legacy engine's blocking barrier,
// reached from a machine on the step engine (only code of this package
// could), is a programming error the engine reports, not a hang.
func TestStepProgramMustNotCallEnvStep(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool {
			env.barrier()
			return true
		})
	})
	if err == nil || !strings.Contains(err.Error(), "use Incoming") {
		t.Fatalf("err = %v, want barrier rejection", err)
	}
}

// TestStepNativeMaxRounds: the MaxRounds guard stops a never-finishing
// machine.
func TestStepNativeMaxRounds(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep, MaxRounds: 50}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool { return false })
	})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
}

// TestStepEngineViolationsReported: model violations inside a machine
// surface as run errors with the engine's usual message.
func TestStepEngineViolationsReported(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool {
			if env.ID() == 2 {
				env.SendLocal(0, "not my neighbor") // 0 is two hops away
			}
			return true
		})
	})
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("err = %v, want non-neighbor violation", err)
	}
}

// TestStepEnginePanicCaptured: a panicking machine fails the run like a
// panicking Program does.
func TestStepEnginePanicCaptured(t *testing.T) {
	g := graph.Path(3)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool {
			if env.ID() == 1 {
				panic("boom")
			}
			return false
		})
	})
	if err == nil || !strings.Contains(err.Error(), "node 1 panicked") {
		t.Fatalf("err = %v, want node panic report", err)
	}
}

// TestStepUnevenFinish: nodes finishing at different rounds must still
// produce the blocking program's round accounting (a finisher's last sends
// are delivered; Metrics.Rounds is the max over nodes).
func TestStepUnevenFinish(t *testing.T) {
	g := graph.Complete(9)
	oracle := make([]int64, g.N())
	oracleM, err := runLegacy(g, Config{Seed: 3}, func(env *Env) {
		total := int64(0)
		for r := 0; r <= env.ID(); r++ {
			env.BroadcastLocal(int64(env.ID()))
			in := env.barrier()
			for _, lm := range in.Local {
				total += lm.Payload.(int64)
			}
		}
		oracle[env.ID()] = total
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineLegacy, EngineStep} {
		out := make([]int64, g.N())
		m, err := RunStep(g, Config{Seed: 3, Engine: eng}, func(env *Env) StepProgram {
			total := int64(0)
			return &Loop{
				Rounds: env.ID() + 1,
				Send:   func(env *Env, i int) { env.BroadcastLocal(int64(env.ID())) },
				Recv: func(env *Env, in Inbox, i int) {
					for _, lm := range in.Local {
						total += lm.Payload.(int64)
					}
					if i == env.ID() {
						out[env.ID()] = total
					}
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, out) {
			t.Fatalf("engine %s: results differ: %v vs %v", eng, out, oracle)
		}
		if m != oracleM {
			t.Fatalf("engine %s: metrics differ: %+v vs %+v", eng, m, oracleM)
		}
	}
}

// TestLocalBitsAccounting pins the LocalBits metric: each copy of a payload
// sent with BroadcastLocalWords is charged the words its sender stated, one
// sent with SendLocal one word, scaled by logN bits, identically on every
// engine.
func TestLocalBitsAccounting(t *testing.T) {
	g := graph.Path(4)
	logN := int64(Log2Ceil(g.N()))
	for _, eng := range []Engine{EngineLegacy, EngineStep} {
		m, err := RunStep(g, Config{Seed: 1, Engine: eng}, oneRound(func(env *Env) {
			if env.ID() == 1 {
				env.BroadcastLocalWords("four words", 4) // to 0 and 2
			}
			if env.ID() == 2 {
				env.SendLocal(3, "opaque") // default: 1 word
			}
		}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if want := 9 * logN; m.LocalBits != want {
			t.Fatalf("engine %s: LocalBits = %d, want %d", eng, m.LocalBits, want)
		}
		if m.LocalMsgs != 3 {
			t.Fatalf("engine %s: LocalMsgs = %d, want 3", eng, m.LocalMsgs)
		}
	}
}

func benchStepEngineRounds(b *testing.B, eng Engine, traffic bool) {
	g := graph.Grid(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunStep(g, Config{Engine: eng}, func(env *Env) StepProgram {
			return &Loop{
				Rounds: 200,
				Send: func(env *Env, r int) {
					if traffic {
						env.BroadcastLocal(r)
						env.SendGlobal((env.ID()+r)%env.N(), 0, 1, 2, 3, 4)
					}
				},
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The barrier benchmarks isolate the round-boundary cost (no messages); the
// traffic benchmarks add a broadcast plus one global message per node per
// round. The gap between the two engines is the scheduler wake/park cost the
// step engine deletes, plus, with traffic, reused inboxes and bucketed
// delivery against the legacy coordinator.
func BenchmarkEngineBarrierStep(b *testing.B)   { benchStepEngineRounds(b, EngineStep, false) }
func BenchmarkEngineTrafficStep(b *testing.B)   { benchStepEngineRounds(b, EngineStep, true) }
func BenchmarkEngineBarrierLegacy(b *testing.B) { benchStepEngineRounds(b, EngineLegacy, false) }
func BenchmarkEngineTrafficLegacy(b *testing.B) { benchStepEngineRounds(b, EngineLegacy, true) }

// TestFinishedPhasesAreCollectable: what a finished phase owned must not stay
// reachable through the composite while a later phase runs — through the
// thunks a Sequence was built from, or through the closure of a finished
// Chain that a composite machine still points to (the shape of a machine that
// keeps its sub-program in a field and is read by its successor). A blocking
// program frees a phase's state by returning from it; a machine has to drop
// its references.
func TestFinishedPhasesAreCollectable(t *testing.T) {
	g := graph.Path(4)
	for _, composite := range []string{"Sequence", "Chain"} {
		var collected atomic.Int32
		checked := false
		_, err := RunStep(g, Config{Shards: 1}, func(env *Env) StepProgram {
			owned := &struct{ buf []byte }{make([]byte, 1<<20)}
			runtime.SetFinalizer(owned, func(*struct{ buf []byte }) { collected.Add(1) })
			first := func(*Env) StepProgram {
				return &Loop{Rounds: 2, Send: func(env *Env, i int) { owned.buf[i]++ }}
			}
			later := func(*Env) StepProgram {
				return &Loop{Rounds: 3, Recv: func(env *Env, _ Inbox, i int) {
					if env.ID() != env.N()-1 {
						return
					}
					// The last node's only Recv of this loop: every node's
					// first phase ended three rounds ago.
					checked = true
					for wait := 0; collected.Load() < int32(env.N()) && wait < 2000; wait++ {
						runtime.GC()
						time.Sleep(time.Millisecond)
					}
				}}
			}
			if composite == "Sequence" {
				return Sequence(first, later)
			}
			var sub StepProgram
			return Sequence(
				func(*Env) StepProgram {
					ran := false
					sub = Chain(func(env *Env) StepProgram {
						if ran {
							return nil
						}
						ran = true
						return first(env)
					})
					return sub
				},
				later,
				Finish(func(*Env) { runtime.KeepAlive(sub) }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !checked {
			t.Fatalf("%s: the later phase never looked", composite)
		}
		if got := collected.Load(); got != int32(g.N()) {
			t.Errorf("%s: %d of %d finished first phases were collected while the second ran", composite, got, g.N())
		}
	}
}
