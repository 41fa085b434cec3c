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

// BenchmarkEngineAPSP compares the step engine with the legacy reference on
// grid-graph APSP (Theorem 1.1) across sizes, on both unweighted grids and
// weighted grids (WithRandomWeights; the Corollary 4.6/4.8 weighted
// regime's local topology). Both run the same machines and produce
// byte-identical results (engines_test.go); what this measures is pure
// engine wall-clock. (cmd/bench is the committed benchmark.) Sizes above
// 1024 are opt-in via HYBRID_BENCH_XL=1 (pass -timeout 0: the n=16384
// instance runs for a long time; see also cmd/hybridsim for one-off XL
// runs).
func BenchmarkEngineAPSP(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
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
				b.Run(fmt.Sprintf("graph=%s/n=%d/engine=%s", graphName, n, eng), func(b *testing.B) {
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
						res, err := hybrid.New(g, hybrid.WithSeed(benchSeed), hybrid.WithEngine(eng)).APSP()
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
