// Randomized cross-engine test harness: a seeded quick-check generator
// draws random graphs (grid / Erdős–Rényi / random-tree mixes, weighted
// and unweighted) and random algorithm specs, runs all three engines, and
// asserts byte-identical results and Metrics with EngineLegacy as the
// oracle — the property-based generalization of the hand-picked matrix in
// engines_test.go. FuzzEnginesAgree makes the same harness `go test
// -fuzz`-compatible: CI smokes the seed corpus on every run (the corpus
// entries execute as normal subtests) and nightly runs can explore deeper
// with -fuzz=FuzzEnginesAgree.
package hybrid_test

import (
	"math/rand"
	"reflect"
	"testing"

	hybrid "repro"
)

// randomInstance decodes the fuzz arguments into a concrete connected
// graph and returns it with a human-readable label.
func randomInstance(seed int64, graphKind, size uint8, weighted bool) (*hybrid.Graph, string) {
	n := 16 + int(size)%33 // 16..48 nodes: big enough for real skeletons, small enough to fuzz
	rng := rand.New(rand.NewSource(seed))
	var g *hybrid.Graph
	var label string
	switch graphKind % 4 {
	case 0:
		side := 4 + int(size)%3 // 4x4 .. 6x6
		g = hybrid.GridGraph(side, side)
		label = "grid"
	case 1:
		g = hybrid.GNPGraph(n, 0.08, rng)
		label = "gnp"
	case 2:
		g = hybrid.RandomTreeGraph(n, rng)
		label = "tree"
	default:
		g = hybrid.SparseGraph(n, 1.3, rng)
		label = "sparse"
	}
	if weighted {
		g = hybrid.WithRandomWeights(g, 1+int64(size)%9, rng)
		label += "-weighted"
	}
	return g, label
}

// checkEnginesAgree is the harness body: run the drawn algorithm on the
// drawn graph on every engine and require byte-identical results and
// Metrics, plus exactness against sequential ground truth where the
// algorithm is exact.
func checkEnginesAgree(t *testing.T, seed int64, graphKind, size, algo uint8, weighted bool) {
	t.Helper()
	// Diameter specs are defined on unweighted graphs only.
	if algo%5 == 4 {
		weighted = false
	}
	g, label := randomInstance(seed, graphKind, size, weighted)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	// Parallel-grain draws: shard count (0 = autotune) and dist
	// worker-process count. Results must be independent of both, so the
	// harness draws them per instance and holds every engine to the legacy
	// oracle regardless.
	shards := []int{0, 1, 2, 3, 7, 16}[rng.Intn(6)]
	workers := []int{1, 2, 3}[rng.Intn(3)]
	// This draw used to pick the dist engine's pipelining window; it stays,
	// discarded, so the committed seed corpus still names the same k-SSP
	// sources below.
	rng.Intn(3)

	type outcome struct {
		result  interface{}
		metrics hybrid.Metrics
	}
	// The k-SSP sources are part of the instance, not of a run: draw them
	// once so every engine solves the identical problem.
	var sources []int
	if algo%5 == 3 {
		k := 1 + int(size)%3
		seen := map[int]bool{}
		for len(sources) < k {
			s := rng.Intn(g.N())
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
	}
	runOn := func(eng hybrid.Engine) outcome {
		net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(eng),
			hybrid.WithShards(shards), hybrid.WithWorkers(workers))
		switch algo % 5 {
		case 0:
			res, err := net.APSP()
			if err != nil {
				t.Fatalf("%s %s apsp: %v", label, eng, err)
			}
			if eng == hybrid.EngineLegacy {
				if want := hybrid.ExactAPSP(g); !reflect.DeepEqual(res.Dist, want) {
					t.Errorf("%s: oracle APSP diverges from sequential ground truth", label)
				}
			}
			return outcome{res.Dist, res.Metrics}
		case 1:
			res, err := net.APSPBaseline()
			if err != nil {
				t.Fatalf("%s %s apsp-baseline: %v", label, eng, err)
			}
			return outcome{res.Dist, res.Metrics}
		case 2:
			src := int(size) % g.N()
			res, err := net.SSSP(src)
			if err != nil {
				t.Fatalf("%s %s sssp: %v", label, eng, err)
			}
			if eng == hybrid.EngineLegacy {
				if want := hybrid.Dijkstra(g, src); !reflect.DeepEqual(res.Dist, want) {
					t.Errorf("%s: oracle SSSP diverges from Dijkstra", label)
				}
			}
			return outcome{res.Dist, res.Metrics}
		case 3:
			res, err := net.KSSP(sources, hybrid.Cor47(0.5))
			if err != nil {
				t.Fatalf("%s %s kssp: %v", label, eng, err)
			}
			return outcome{res.Dist, res.Metrics}
		default:
			res, err := net.Diameter(hybrid.DiamCor52(0.5))
			if err != nil {
				t.Fatalf("%s %s diameter: %v", label, eng, err)
			}
			return outcome{res.Estimate, res.Metrics}
		}
	}

	oracle := runOn(hybrid.EngineLegacy)
	for _, eng := range allEngines[1:] {
		got := runOn(eng)
		if !reflect.DeepEqual(oracle.result, got.result) {
			t.Errorf("%s algo=%d: results differ between legacy and %s", label, algo%5, eng)
		}
		if oracle.metrics != got.metrics {
			t.Errorf("%s algo=%d: metrics differ: legacy %+v %s %+v", label, algo%5, oracle.metrics, eng, got.metrics)
		}
	}
}

// FuzzEnginesAgree is the go test -fuzz entry. The seed corpus covers
// every graph kind and algorithm at least once (run as plain subtests by
// `go test`, including CI's race step); the fuzzer mutates from there.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0), false)        // grid, apsp
	f.Add(int64(2), uint8(1), uint8(9), uint8(1), false)        // gnp, apsp-baseline
	f.Add(int64(3), uint8(2), uint8(17), uint8(2), true)        // weighted tree, sssp
	f.Add(int64(4), uint8(3), uint8(6), uint8(3), false)        // sparse, kssp
	f.Add(int64(5), uint8(0), uint8(11), uint8(4), false)       // grid, diameter
	f.Add(int64(6), uint8(2), uint8(30), uint8(0), false)       // tree, apsp
	f.Add(int64(7), uint8(1), uint8(23), uint8(3), true)        // weighted gnp, kssp
	f.Add(int64(20200615), uint8(3), uint8(2), uint8(2), false) // sparse, sssp
	f.Fuzz(func(t *testing.T, seed int64, graphKind, size, algo uint8, weighted bool) {
		checkEnginesAgree(t, seed, graphKind, size, algo, weighted)
	})
}

// TestRandomizedEnginesAgree is the deterministic quick-check sweep: a
// seeded generator draws random instances across the full (graph, algo,
// weights) space so every `go test` run exercises the harness beyond the
// fuzz corpus. Iterations are trimmed under -short.
func TestRandomizedEnginesAgree(t *testing.T) {
	iters := 10
	if testing.Short() {
		iters = 3
	}
	rng := rand.New(rand.NewSource(20200615))
	for i := 0; i < iters; i++ {
		seed := rng.Int63()
		graphKind := uint8(rng.Intn(4))
		size := uint8(rng.Intn(256))
		algo := uint8(rng.Intn(5))
		weighted := rng.Intn(3) == 0
		t.Run("", func(t *testing.T) {
			checkEnginesAgree(t, seed, graphKind, size, algo, weighted)
		})
	}
}
