package sssp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func runLocal(t *testing.T, g *graph.Graph, src, rounds int, seed int64) ([]int64, sim.Metrics) {
	t.Helper()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, func(env *sim.Env, done func(int64)) sim.StepProgram {
		return NewLocalMachine(env, env.ID() == src, rounds, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

func TestLocalExactAfterSPDRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(40)},
		{"weighted sparse", graph.WithRandomWeights(graph.SparseConnected(60, 1.2, rng), 9, rng)},
		{"grid", graph.Grid(6, 7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spd := graph.SPD(tt.g)
			got, m := runLocal(t, tt.g, 0, spd, 3)
			want := graph.Dijkstra(tt.g, 0)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("d(%d) = %d, want %d", v, got[v], want[v])
				}
			}
			if m.Rounds != spd {
				t.Fatalf("took %d rounds, want exactly SPD = %d", m.Rounds, spd)
			}
			if m.GlobalMsgs != 0 {
				t.Fatalf("LOCAL baseline used %d global messages", m.GlobalMsgs)
			}
		})
	}
}

func TestLocalIncompleteBeforeSPD(t *testing.T) {
	g := graph.Path(30)
	got, _ := runLocal(t, g, 0, 10, 5)
	if got[29] != graph.Inf {
		t.Fatalf("node 29 resolved to %d after 10 rounds; path needs 29", got[29])
	}
	if got[10] != 10 {
		t.Fatalf("node 10 = %d, want 10", got[10])
	}
}

func TestLocalSourceIsZero(t *testing.T) {
	g := graph.Cycle(12)
	got, _ := runLocal(t, g, 7, 6, 7)
	if got[7] != 0 {
		t.Fatalf("source distance = %d, want 0", got[7])
	}
}

func TestLocalAllMultiSource(t *testing.T) {
	g := graph.Grid(5, 5)
	sources := map[int]bool{0: true, 24: true}
	out, _, err := sim.RunPipeline(g, sim.Config{Seed: 9}, func(env *sim.Env, done func([]int64)) sim.StepProgram {
		return NewLocalAllMachine(env, sources[env.ID()], 8, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	d0 := graph.Dijkstra(g, 0)
	d24 := graph.Dijkstra(g, 24)
	for v := 0; v < g.N(); v++ {
		if out[v][0] != d0[v] {
			t.Fatalf("node %d dist to 0 = %d, want %d", v, out[v][0], d0[v])
		}
		if out[v][24] != d24[v] {
			t.Fatalf("node %d dist to 24 = %d, want %d", v, out[v][24], d24[v])
		}
	}
}
