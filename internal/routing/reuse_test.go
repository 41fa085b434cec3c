package routing

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestRouteMachineReuseAcrossShapes routes instances of different shapes one
// after another over one session — a full instance, an empty one, a smaller
// one in which some receivers of the first expect nothing, and the first
// again — and holds each instance's per-node Out, and the run's Metrics, to
// fresh sessions routing each instance alone. What a Session keeps between
// instances (answered tokens, the reply queue and its cursors, the collected
// tokens, the drain's state) must not leak from one instance into the next.
func TestRouteMachineReuseAcrossShapes(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	full := buildInstance(n, 0.4, 0.4, 3, 21)
	if err := Validate(full); err != nil {
		t.Fatal(err)
	}
	empty := make([]Spec, n)
	small := make([]Spec, n)
	for v := range full {
		empty[v] = Spec{InS: full[v].InS, InR: full[v].InR, KS: full[v].KS, KR: full[v].KR, PS: full[v].PS, PR: full[v].PR}
		small[v] = empty[v]
	}
	for v, sp := range full {
		if v%2 == 0 && len(sp.Send) > 0 {
			tok := sp.Send[len(sp.Send)-1]
			tok.Value = -tok.Value
			small[v].Send = []Token{tok}
			small[tok.R].Expect = append(small[tok.R].Expect, tok.Label)
		}
	}
	if err := Validate(small); err != nil {
		t.Fatal(err)
	}
	dropsOut := false
	for v := range full {
		dropsOut = dropsOut || len(full[v].Expect) > 0 && len(small[v].Expect) == 0
	}
	if !dropsOut {
		t.Fatal("every receiver of the full instance expects in the small one too")
	}
	instances := [][]Spec{full, empty, small, full}

	// route runs one session and then the given instances over it,
	// recording every instance's Out per node.
	route := func(eng sim.Engine, insts [][]Spec) ([][][]Token, sim.Metrics) {
		t.Helper()
		outs := newRouteOuts(len(insts), n)
		m, err := sim.RunStep(g, sim.Config{Seed: 5, Engine: eng}, routeOver(full, insts, outs, nil))
		if err != nil {
			t.Fatal(err)
		}
		return outs, m
	}

	for _, eng := range simtest.Engines {
		_, want := route(eng, nil)
		session := want
		alone := make([][][]Token, len(instances))
		for k, inst := range instances {
			outs, m := route(eng, [][]Spec{inst})
			alone[k] = outs[0]
			for v, got := range alone[k] {
				if len(got) != len(inst[v].Expect) {
					t.Fatalf("%s: instance %d alone: node %d received %d tokens, expects %d", eng, k, v, len(got), len(inst[v].Expect))
				}
			}
			want.Rounds += m.Rounds - session.Rounds
			want.GlobalMsgs += m.GlobalMsgs - session.GlobalMsgs
			want.GlobalBits += m.GlobalBits - session.GlobalBits
			want.LocalMsgs += m.LocalMsgs - session.LocalMsgs
			want.LocalBits += m.LocalBits - session.LocalBits
			want.MaxGlobalSend = max(want.MaxGlobalSend, m.MaxGlobalSend)
			want.MaxGlobalRecv = max(want.MaxGlobalRecv, m.MaxGlobalRecv)
		}
		outs, m := route(eng, instances)
		for k := range instances {
			for v := range outs[k] {
				if !slices.Equal(outs[k][v], alone[k][v]) {
					t.Errorf("%s: instance %d over the shared session: node %d received %v, alone %v", eng, k, v, outs[k][v], alone[k][v])
				}
			}
		}
		if m != want {
			t.Errorf("%s: Metrics over the shared session\n got %+v\nwant %+v (the session, plus each instance alone)", eng, m, want)
		}
	}
}

// TestRouteMachineOverlapIsRunError: a Session owns one RouteMachine, so
// arming a second instance while the first is still routing is a caller's
// error, and the run reports it.
func TestRouteMachineOverlapIsRunError(t *testing.T) {
	g := graph.Grid(4, 4)
	specs := buildInstance(g.N(), 0.5, 0.5, 2, 3)
	for _, eng := range []sim.Engine{sim.EngineStep, sim.EngineLegacy} {
		_, err := sim.RunStep(g, sim.Config{Seed: 1, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			sp := specs[env.ID()]
			var sm *SessionMachine
			return sim.Sequence(
				func(env *sim.Env) sim.StepProgram {
					sm = NewSessionMachine(env, sp.InS, sp.InR, sp.KS, sp.KR, sp.PS, sp.PR, Params{})
					return sm
				},
				func(env *sim.Env) sim.StepProgram {
					first := NewRouteMachine(sm.Out, sp.Send, sp.Expect)
					steps := 0
					return sim.StepFunc(func(env *sim.Env) bool {
						if steps++; steps == 3 {
							NewRouteMachine(sm.Out, sp.Send, sp.Expect)
						}
						return first.Step(env)
					})
				},
			)
		})
		if err == nil || !strings.Contains(err.Error(), "while its previous one is still routing") {
			t.Errorf("%s: overlapping instances on one session: got error %v", eng, err)
		}
	}
}
