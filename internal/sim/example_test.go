package sim_test

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/sim"
)

// A StepProgram is a resumable state machine: one Step call runs one round
// segment — read Env.Incoming, stage sends, report done — and never
// blocks. RunStep executes it on the goroutine-free EngineStep (the default)
// or, one goroutine per node, on the reference EngineLegacy, with
// byte-identical results either way. Here every node floods a token wave
// down a path with a three-round sim.Loop.
func ExampleRunStep() {
	g := graph.Path(5)
	dist := make([]int, g.N())
	m, err := sim.RunStep(g, sim.Config{Seed: 1}, func(env *sim.Env) sim.StepProgram {
		reached := env.ID() == 0 // node 0 starts the wave
		hop := -1
		if reached {
			hop = 0
		}
		return &sim.Loop{
			Rounds: 3,
			Send: func(env *sim.Env, i int) {
				if hop == i { // newly reached: forward the wave
					env.BroadcastLocal(i)
				}
			},
			Recv: func(env *sim.Env, in sim.Inbox, i int) {
				if !reached && len(in.Local) > 0 {
					reached = true
					hop = i + 1
				}
				if i == 2 { // last round: record the result
					dist[env.ID()] = hop
				}
			},
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hops from node 0:", dist)
	fmt.Println("rounds:", m.Rounds)
	// Output:
	// hops from node 0: [0 1 2 3 -1]
	// rounds: 3
}
