// Benchmark harness: BenchmarkExperiments runs every experiment and
// ablation table (experiments.Index: E1–E11, then A1–A4) as a sub-benchmark
// named by its ID. Each prints its table once, reports the headline metric,
// and fails on any guarantee violation — so
// `go test -run '^$' -bench Experiments -benchtime 1x .` regenerates every
// evaluable artifact of the paper in one run. Use -short for the quick
// sweeps, -bench Experiments/E3 for one table, and HYBRID_BENCH_XL=1 to
// extend the E3/E6 scaling tables to n ∈ {1024, 4096}.
package hybrid_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	hybrid "repro"
	"repro/internal/experiments"
)

const benchSeed = 20200615 // the paper's arXiv date

var printOnce sync.Map

func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Seed: benchSeed, Quick: testing.Short(), XL: os.Getenv("HYBRID_BENCH_XL") != ""}
	for _, e := range experiments.Index {
		b.Run(e.ID, func(b *testing.B) {
			var table experiments.Table
			for i := 0; i < b.N; i++ {
				table = e.Run(cfg)
			}
			if _, done := printOnce.LoadOrStore(e.ID, true); !done {
				fmt.Println(table.String())
			}
			for _, fail := range table.Failures {
				b.Errorf("%s: %s", e.ID, fail)
			}
			if rounds := lastRounds(table); rounds > 0 {
				b.ReportMetric(rounds, "rounds")
			}
		})
	}
}

// lastRounds pulls the last row's first integer-looking "rounds" column for
// ReportMetric (best effort; the tables are the real output).
func lastRounds(t experiments.Table) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	for i, h := range t.Header {
		if h == "rounds" || h == "thm1.1 rounds" || h == "HYBRID rounds" || h == "thm1.3 rounds" {
			row := t.Rows[len(t.Rows)-1]
			if i < len(row) {
				if v, err := strconv.ParseFloat(row[i], 64); err == nil {
					return v
				}
			}
		}
	}
	return 0
}

// shardSettings is the shards dimension of the step-engine benchmarks: one
// shard against the autotune (WithShards(0): one shard per CPU, at least
// 64 nodes each), the pair that says whether sharding pays on the machine
// at hand.
var shardSettings = []struct {
	name   string
	shards int
}{{"1", 1}, {"auto", 0}}

// BenchmarkEngineAPSP compares the step engine with the legacy reference on
// grid-graph APSP (Theorem 1.1) across sizes, on both unweighted grids and
// weighted grids (WithRandomWeights; the Corollary 4.6/4.8 weighted
// regime's local topology), and the step engine on one shard with its
// autotuned shard count. All run the same machines and produce
// byte-identical results (engines_test.go); what this measures is pure
// engine wall-clock. (cmd/bench is the committed benchmark.) Sizes above
// 1024 are opt-in via HYBRID_BENCH_XL=1 (pass -timeout 0: the n=16384
// instance runs for a long time; see also cmd/hybridsim for one-off XL
// runs).
func BenchmarkEngineAPSP(b *testing.B) {
	for _, n := range []int{64, 128, 256, 1024, 4096, 16384} {
		side := 1
		for side*side < n {
			side++
		}
		for _, weighted := range []bool{false, true} {
			graphName := "grid"
			if weighted {
				graphName = "wgrid"
			}
			for _, eng := range []hybrid.Engine{hybrid.EngineLegacy, hybrid.EngineStep} {
				for _, sh := range shardSettings {
					name := fmt.Sprintf("graph=%s/n=%d/engine=%s", graphName, n, eng)
					if eng == hybrid.EngineStep {
						name += "/shards=" + sh.name
					} else if sh.shards != 0 {
						continue // the legacy engine has no shards
					}
					b.Run(name, func(b *testing.B) {
						if n > 1024 && os.Getenv("HYBRID_BENCH_XL") == "" {
							b.Skip("set HYBRID_BENCH_XL=1 (and -timeout 0) for sizes above 1024")
						}
						g := hybrid.GridGraph(side, side)
						if weighted {
							wrng := rand.New(rand.NewSource(benchSeed + int64(n)))
							g = hybrid.WithRandomWeights(g, 8, wrng)
						}
						var rounds int
						for i := 0; i < b.N; i++ {
							res, err := hybrid.New(g, hybrid.WithSeed(benchSeed), hybrid.WithEngine(eng), hybrid.WithShards(sh.shards)).APSP()
							if err != nil {
								b.Fatal(err)
							}
							rounds = res.Metrics.Rounds
						}
						b.ReportMetric(float64(rounds), "rounds")
					})
				}
			}
		}
	}
}

// BenchmarkEngineTokenRouting compares the two engines on an all-nodes token
// routing instance (Theorem 2.2), a workload with dense per-round
// messaging: the regime the step engine's preallocated inboxes and
// per-shard staging are built for. (internal/sim's engine benchmarks
// isolate the raw delivery gap.)
func BenchmarkEngineTokenRouting(b *testing.B) {
	g := hybrid.GridGraph(32, 32)
	n := g.N()
	specs := make([]hybrid.RoutingSpec, n)
	for v := range specs {
		next := (v + 1) % n
		prev := (v - 1 + n) % n
		specs[v] = hybrid.RoutingSpec{
			Send:   []hybrid.RoutingToken{{Label: hybrid.RoutingLabel{S: v, R: next}, Value: int64(v)}},
			Expect: []hybrid.RoutingLabel{{S: prev, R: v}},
			InS:    true,
			InR:    true,
			KS:     1,
			KR:     1,
			PS:     1,
			PR:     1,
		}
	}
	for _, eng := range []hybrid.Engine{hybrid.EngineLegacy, hybrid.EngineStep} {
		b.Run(fmt.Sprintf("engine=%s", eng), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := hybrid.New(g, hybrid.WithSeed(benchSeed), hybrid.WithEngine(eng)).TokenRouting(specs)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFacadeAPSP measures the end-to-end wall-clock cost of the
// public-API Theorem 1.1 pipeline on a mid-size graph (engine overhead
// included), reporting the HYBRID round count as a metric.
func BenchmarkFacadeAPSP(b *testing.B) {
	g := hybrid.GridGraph(10, 10)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := hybrid.New(g, hybrid.WithSeed(benchSeed)).APSP()
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkFacadeAPSPGrid is cmd/bench's apsp_grid_1024 ("cold") and
// apsp_grid_1024_warm ("warm") through the facade: Theorem 1.1 on the 32×32
// grid, algorithm seed 1, EngineStep with autotuned shards. A warm operation
// is LoadCache and APSP on a fresh Network, over a cache that one cold run
// saved before the timer starts. It reports allocations, so
// `go test -run '^$' -bench FacadeAPSPGrid -benchmem .` rechecks both
// workloads' time and memory without building cmd/bench.
func BenchmarkFacadeAPSPGrid(b *testing.B) {
	g := hybrid.GridGraph(32, 32)
	opts := []hybrid.Option{hybrid.WithSeed(1), hybrid.WithEngine(hybrid.EngineStep)}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := hybrid.New(g, opts...).APSP(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		warm := append(slices.Clone(opts), hybrid.WithCacheDir(b.TempDir()))
		nw := hybrid.New(g, warm...)
		if _, err := nw.APSP(); err != nil {
			b.Fatal(err)
		}
		if err := nw.SaveCache(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			nw := hybrid.New(g, warm...)
			if status, err := nw.LoadCache(); err != nil || !status.Structural || !status.Seed {
				b.Fatalf("LoadCache restored %+v (%v), want both cache sections", status, err)
			}
			if _, err := nw.APSP(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFacadeDiameter measures the (3/2+eps) diameter pipeline.
func BenchmarkFacadeDiameter(b *testing.B) {
	g := hybrid.GridGraph(10, 10)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := hybrid.New(g, hybrid.WithSeed(benchSeed)).Diameter(hybrid.DiamCor52(0.5))
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkFacadeAPSPRepeated measures the repeated-call workload the
// Network session cache targets: two APSP runs on one Network, the second
// reusing the cached routing session. The reported metrics are the two
// round counts; their gap is the setup cost the cache deletes.
func BenchmarkFacadeAPSPRepeated(b *testing.B) {
	g := hybrid.GridGraph(10, 10)
	var first, second int
	for i := 0; i < b.N; i++ {
		net := hybrid.New(g, hybrid.WithSeed(benchSeed))
		r1, err := net.APSP()
		if err != nil {
			b.Fatal(err)
		}
		r2, err := net.APSP()
		if err != nil {
			b.Fatal(err)
		}
		first, second = r1.Metrics.Rounds, r2.Metrics.Rounds
	}
	b.ReportMetric(float64(first), "rounds-first")
	b.ReportMetric(float64(second), "rounds-cached")
}

// BenchmarkFacadeKSSPRealMM is the k-SSP workload of cmd/bench's
// kssp_mm_sparse_400 through the facade: Theorem 1.2 with real-message
// CLIQUE simulation (Algorithm 8, one token-routing instance per simulated
// round) from 16 evenly spaced sources on a randomly weighted sparse graph
// of 400 nodes, graph and algorithm seed 1, on EngineStep, on one shard and
// on the autotuned count (shards=auto is what cmd/bench runs). It reports
// allocations, so `go test -run '^$' -bench FacadeKSSPRealMM -benchmem .`
// shows what a simulated round costs in memory without building cmd/bench.
func BenchmarkFacadeKSSPRealMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := hybrid.WithRandomWeights(hybrid.SparseGraph(400, 1.2, rng), 100, rng)
	const k = 16
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i * g.N() / k
	}
	for _, sh := range shardSettings {
		b.Run("shards="+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var rounds int
			for i := 0; i < b.N; i++ {
				nw := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(hybrid.EngineStep), hybrid.WithShards(sh.shards))
				res, err := nw.KSSP(sources, hybrid.KSSPRealMM(0))
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Metrics.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}
