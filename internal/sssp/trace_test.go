package sssp

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestLocalMachinesMatch holds the LOCAL baseline machines, on every engine,
// to the trace recorded from the blocking Local and LocalAll they replaced;
// with rounds = n-1 >= SPD both are exact.
func TestLocalMachinesMatch(t *testing.T) {
	g := graph.Path(25)
	const rounds = 24
	isSource := func(id int) bool { return id == 3 }
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 48, LocalMsgs: 96, LocalBits: 1440}, Sum: 0x7b64e5f79a2437f}

	gotOne := make([]int64, g.N())
	simtest.Machines(t, "local", g, 19, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		id := env.ID()
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				return NewLocalMachine(env, isSource(id), rounds, func(d int64) {
					gotOne[id] = d
					emit(d)
				})
			},
			func(env *sim.Env) sim.StepProgram {
				return NewLocalAllMachine(env, isSource(id), rounds, func(v []int64) { emit(v...) })
			},
		)
	})
	want := graph.Dijkstra(g, 3)
	for v, d := range gotOne {
		if d != want[v] {
			t.Errorf("node %d: distance %d, want %d", v, d, want[v])
		}
	}
}
