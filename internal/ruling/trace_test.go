package ruling

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestMachineMatchesPin holds the machine, on every engine, to the trace
// recorded from the blocking Compute it replaced: same membership, same
// Metrics, and the membership is a valid ruling set.
func TestMachineMatchesPin(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(5, 6),
		"path": graph.Path(23),
	}
	pins := map[string]simtest.Pin{
		"grid mu=1": {Metrics: sim.Metrics{Rounds: 10, LocalMsgs: 298, LocalBits: 1490}, Sum: 0x25a5dcd1bf073ce5},
		"grid mu=3": {Metrics: sim.Metrics{Rounds: 30, LocalMsgs: 458, LocalBits: 2290}, Sum: 0x622a5778680cf6c4},
		"path mu=1": {Metrics: sim.Metrics{Rounds: 10, LocalMsgs: 134, LocalBits: 670}, Sum: 0x4f763d0764ecace4},
		"path mu=3": {Metrics: sim.Metrics{Rounds: 30, LocalMsgs: 191, LocalBits: 955}, Sum: 0x523b6583f9fcf705},
	}
	for name, g := range graphs {
		for _, mu := range []int{1, 3} {
			name := fmt.Sprintf("%s mu=%d", name, mu)
			inSet := make([]bool, g.N())
			simtest.Machines(t, name, g, 11, pins[name], func(env *sim.Env, emit func(...int64)) sim.StepProgram {
				m := NewMachine(env, mu)
				return sim.Then(m, func(env *sim.Env) {
					inSet[env.ID()] = m.InSet
					emit(simtest.Bool(m.InSet))
				})
			})
			if err := Check(g, inSet, 2*mu+1, 2*mu*sim.Log2Ceil(g.N())); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
