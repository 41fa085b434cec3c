package diameter

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// globalPin is what a diameter run must reproduce apart from its LOCAL
// accounting: the estimate every node outputs and the global-mode costs.
type globalPin struct {
	Est                          int64
	Rounds                       int
	GlobalMsgs, GlobalBits       int64
	MaxGlobalSend, MaxGlobalRecv int
}

// TestDiameterMachinesMatchGlobalPin holds Algorithm 9 to literals recorded
// before its exploration moved onto the shared kernel: every node's
// estimate, the round count and every global-mode figure, per (spec, graph,
// seed, engine). The LOCAL figures are left out on purpose: they count the
// exploration's messages, which is what the kernel changed. The literals
// were re-recorded when the node streams became SplitMix64: the drawn
// skeleton moved the global figures and some estimates of the
// approximations, each still within its bound. Path(1) and
// Path(2) are the smallest inputs (one node has no neighbour to flood
// to); Path(90) and Path(200) take Equation (3)'s D~(S)+2h branch.
func TestDiameterMachinesMatchGlobalPin(t *testing.T) {
	weighted := graph.WithRandomWeights(graph.Grid(8, 8), 9, rand.New(rand.NewSource(4)))
	oracleGraphs := []struct {
		name string
		g    *graph.Graph
		dist bool
	}{
		{"path90", graph.Path(90), false},
		{"path200", graph.Path(200), false},
		{"cycle120", graph.Cycle(120), false},
		{"barbell10x60", graph.Barbell(10, 60), false},
		{"grid10x10", graph.Grid(10, 10), true},
		{"wgrid8x8", weighted, false},
		{"path1", graph.Path(1), false},
		{"path2", graph.Path(2), false},
	}
	type instance struct {
		name string
		g    *graph.Graph
		spec kssp.AlgSpec
		dist bool
	}
	var instances []instance
	for _, sp := range []struct {
		name string
		spec kssp.AlgSpec
	}{{"cor52", Corollary52(0.5, 0)}, {"cor53", Corollary53(0.5, 0)}} {
		for _, og := range oracleGraphs {
			instances = append(instances, instance{sp.name + "/" + og.name, og.g, sp.spec, og.dist})
		}
	}
	instances = append(instances,
		instance{"mm/path90", graph.Path(90), RealMM(2), false},
		instance{"mm/grid6x6", graph.Grid(6, 6), RealMM(2), false})

	// The (instance, seed) cases share nothing but read-only graphs, so
	// they run as parallel subtests; each still runs every engine.
	for _, in := range instances {
		engines := []sim.Engine{sim.EngineStep, sim.EngineLegacy}
		if in.dist {
			engines = simtest.Engines
		}
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/seed%d", in.name, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				for _, eng := range engines {
					out, m, err := sim.RunPipeline(in.g, sim.Config{Seed: seed, Engine: eng}, Pipeline(in.spec, kssp.Params{}))
					if err != nil {
						t.Fatalf("on %v: %v", eng, err)
					}
					for v := range out {
						if out[v] != out[0] {
							t.Fatalf("on %v: node %d estimates %d, node 0 %d", eng, v, out[v], out[0])
						}
					}
					got := globalPin{out[0], m.Rounds, m.GlobalMsgs, m.GlobalBits, m.MaxGlobalSend, m.MaxGlobalRecv}
					if want, ok := diameterGlobalPins[key]; !ok || got != want {
						t.Errorf("on %v: got %+v, want %+v", eng, got, want)
					}
				}
			})
		}
	}
}

var diameterGlobalPins = map[string]globalPin{
	"cor52/path90/seed1":       {164, 2392, 4674, 271092, 7, 8},
	"cor52/path90/seed2":       {158, 2392, 3764, 218312, 7, 7},
	"cor52/path90/seed3":       {171, 2392, 4492, 260536, 7, 7},
	"cor52/path200/seed1":      {309, 3960, 12402, 793728, 8, 8},
	"cor52/path200/seed2":      {318, 3960, 11397, 729408, 8, 8},
	"cor52/path200/seed3":      {321, 3960, 13608, 870912, 8, 8},
	"cor52/cycle120/seed1":     {60, 2662, 7565, 438770, 7, 9},
	"cor52/cycle120/seed2":     {60, 2662, 5629, 326482, 7, 7},
	"cor52/cycle120/seed3":     {60, 2662, 6839, 396662, 7, 7},
	"cor52/barbell10x60/seed1": {62, 2292, 3942, 228636, 7, 8},
	"cor52/barbell10x60/seed2": {62, 2292, 3382, 196156, 7, 7},
	"cor52/barbell10x60/seed3": {62, 2292, 3622, 210076, 7, 7},
	"cor52/grid10x10/seed1":    {18, 2481, 5598, 324684, 7, 7},
	"cor52/grid10x10/seed2":    {18, 2481, 4386, 254388, 7, 7},
	"cor52/grid10x10/seed3":    {18, 2481, 5295, 307110, 7, 8},
	"cor52/wgrid8x8/seed1":     {14, 1938, 3129, 162708, 6, 6},
	"cor52/wgrid8x8/seed2":     {14, 1938, 2609, 135668, 6, 6},
	"cor52/wgrid8x8/seed3":     {14, 1938, 2674, 139048, 6, 6},
	"cor52/path1/seed1":        {0, 89, 2, 44, 1, 1},
	"cor52/path1/seed2":        {0, 89, 2, 44, 1, 1},
	"cor52/path1/seed3":        {0, 89, 2, 44, 1, 1},
	"cor52/path2/seed1":        {1, 101, 29, 638, 1, 2},
	"cor52/path2/seed2":        {1, 101, 29, 638, 1, 2},
	"cor52/path2/seed3":        {1, 101, 29, 638, 1, 2},
	"cor53/path90/seed1":       {89, 2749, 3946, 228868, 7, 7},
	"cor53/path90/seed2":       {89, 2413, 3491, 202478, 7, 7},
	"cor53/path90/seed3":       {89, 2749, 4128, 239424, 7, 7},
	"cor53/path200/seed1":      {359, 4419, 10392, 665088, 8, 8},
	"cor53/path200/seed2":      {368, 4035, 9387, 600768, 8, 8},
	"cor53/path200/seed3":      {371, 4419, 10794, 690816, 8, 8},
	"cor53/cycle120/seed1":     {60, 3374, 5750, 333500, 7, 7},
	"cor53/cycle120/seed2":     {60, 3038, 5024, 291392, 7, 7},
	"cor53/cycle120/seed3":     {60, 3374, 5750, 333500, 7, 7},
	"cor53/barbell10x60/seed1": {62, 2643, 3382, 196156, 7, 7},
	"cor53/barbell10x60/seed2": {62, 2307, 3062, 177596, 7, 7},
	"cor53/barbell10x60/seed3": {62, 2643, 3382, 196156, 7, 7},
	"cor53/grid10x10/seed1":    {18, 2846, 4588, 266104, 7, 7},
	"cor53/grid10x10/seed2":    {18, 2510, 3982, 230956, 7, 7},
	"cor53/grid10x10/seed3":    {18, 2846, 4386, 254388, 7, 7},
	"cor53/wgrid8x8/seed1":     {14, 2236, 2739, 142428, 6, 6},
	"cor53/wgrid8x8/seed2":     {14, 1948, 2414, 125528, 6, 6},
	"cor53/wgrid8x8/seed3":     {14, 1948, 2479, 128908, 6, 6},
	"cor53/path1/seed1":        {0, 68, 2, 44, 1, 1},
	"cor53/path1/seed2":        {0, 68, 2, 44, 1, 1},
	"cor53/path1/seed3":        {0, 68, 2, 44, 1, 1},
	"cor53/path2/seed1":        {1, 101, 29, 638, 1, 2},
	"cor53/path2/seed2":        {1, 101, 29, 638, 1, 2},
	"cor53/path2/seed3":        {1, 101, 29, 638, 1, 2},
	"mm/path90/seed1":          {89, 22648, 64146, 3720468, 7, 9},
	"mm/path90/seed2":          {89, 24223, 62487, 3624246, 7, 8},
	"mm/path90/seed3":          {89, 29266, 77532, 4496856, 7, 11},
	"mm/grid6x6/seed1":         {10, 8375, 12965, 674180, 6, 8},
	"mm/grid6x6/seed2":         {10, 8367, 12965, 674180, 6, 8},
	"mm/grid6x6/seed3":         {10, 10587, 18097, 941044, 6, 10},
}
