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
// exploration's messages, which is what the kernel changed. Path(1) and
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
	"cor52/path90/seed1":       {161, 2392, 4128, 239424, 7, 7},
	"cor52/path90/seed2":       {164, 2392, 5129, 297482, 7, 7},
	"cor52/path90/seed3":       {163, 2392, 4310, 249980, 7, 7},
	"cor52/path200/seed1":      {302, 3960, 12000, 768000, 8, 8},
	"cor52/path200/seed2":      {321, 3960, 13809, 883776, 8, 8},
	"cor52/path200/seed3":      {321, 3960, 13407, 858048, 8, 8},
	"cor52/cycle120/seed1":     {60, 2662, 5871, 340518, 7, 7},
	"cor52/cycle120/seed2":     {60, 2662, 6718, 389644, 7, 7},
	"cor52/cycle120/seed3":     {60, 2662, 6476, 375608, 7, 7},
	"cor52/barbell10x60/seed1": {62, 2292, 3542, 205436, 7, 7},
	"cor52/barbell10x60/seed2": {62, 2292, 4262, 247196, 7, 7},
	"cor52/barbell10x60/seed3": {62, 2292, 3862, 223996, 7, 7},
	"cor52/grid10x10/seed1":    {18, 2481, 4689, 271962, 7, 7},
	"cor52/grid10x10/seed2":    {18, 2481, 5800, 336400, 7, 8},
	"cor52/grid10x10/seed3":    {18, 2481, 5093, 295394, 7, 7},
	"cor52/wgrid8x8/seed1":     {14, 1938, 2609, 135668, 6, 7},
	"cor52/wgrid8x8/seed2":     {14, 1938, 2934, 152568, 6, 9},
	"cor52/wgrid8x8/seed3":     {14, 1938, 2804, 145808, 6, 6},
	"cor52/path1/seed1":        {0, 89, 2, 44, 1, 1},
	"cor52/path1/seed2":        {0, 89, 2, 44, 1, 1},
	"cor52/path1/seed3":        {0, 89, 2, 44, 1, 1},
	"cor52/path2/seed1":        {1, 101, 26, 572, 1, 1},
	"cor52/path2/seed2":        {1, 101, 29, 638, 1, 2},
	"cor52/path2/seed3":        {1, 101, 29, 638, 1, 2},
	"cor53/path90/seed1":       {89, 2413, 3400, 197200, 7, 7},
	"cor53/path90/seed2":       {89, 2749, 4219, 244702, 7, 7},
	"cor53/path90/seed3":       {89, 2749, 3946, 228868, 7, 7},
	"cor53/path200/seed1":      {352, 4419, 9990, 639360, 8, 8},
	"cor53/path200/seed2":      {371, 4803, 11397, 729408, 8, 8},
	"cor53/path200/seed3":      {371, 4803, 12201, 780864, 8, 8},
	"cor53/cycle120/seed1":     {60, 3038, 5266, 305428, 7, 7},
	"cor53/cycle120/seed2":     {60, 3038, 5508, 319464, 7, 7},
	"cor53/cycle120/seed3":     {60, 3374, 5629, 326482, 7, 7},
	"cor53/barbell10x60/seed1": {62, 2307, 2902, 168316, 7, 7},
	"cor53/barbell10x60/seed2": {62, 2643, 3702, 214716, 7, 7},
	"cor53/barbell10x60/seed3": {62, 2643, 3462, 200796, 7, 7},
	"cor53/grid10x10/seed1":    {18, 2510, 3982, 230956, 7, 7},
	"cor53/grid10x10/seed2":    {18, 3182, 4689, 271962, 7, 7},
	"cor53/grid10x10/seed3":    {18, 2846, 4588, 266104, 7, 7},
	"cor53/wgrid8x8/seed1":     {14, 1948, 2349, 122148, 6, 6},
	"cor53/wgrid8x8/seed2":     {14, 2236, 2739, 142428, 6, 7},
	"cor53/wgrid8x8/seed3":     {14, 1948, 2544, 132288, 6, 6},
	"cor53/path1/seed1":        {0, 68, 2, 44, 1, 1},
	"cor53/path1/seed2":        {0, 68, 2, 44, 1, 1},
	"cor53/path1/seed3":        {0, 68, 2, 44, 1, 1},
	"cor53/path2/seed1":        {1, 80, 18, 396, 1, 1},
	"cor53/path2/seed2":        {1, 101, 29, 638, 1, 2},
	"cor53/path2/seed3":        {1, 101, 29, 638, 1, 2},
	"mm/path90/seed1":          {89, 10355, 23357, 1354706, 7, 7},
	"mm/path90/seed2":          {89, 21063, 65865, 3820170, 7, 10},
	"mm/path90/seed3":          {89, 27420, 80547, 4671726, 7, 12},
	"mm/grid6x6/seed1":         {10, 8393, 12965, 674180, 6, 9},
	"mm/grid6x6/seed2":         {10, 10587, 18097, 941044, 6, 11},
	"mm/grid6x6/seed3":         {10, 8364, 11740, 610480, 6, 6},
}
