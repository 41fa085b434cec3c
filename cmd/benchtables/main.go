// Command benchtables regenerates every experiment table of the
// reproduction (E1-E11, the per-experiment index in DESIGN.md) and prints
// them. Exit status 1 if any guarantee check failed.
//
// Usage:
//
//	benchtables [-quick] [-xl] [-seed N] [-only E3,E7] [-engine step]
//
// -xl extends the scaling tables (E3, E6) to n ∈ {1024, 4096}; see the
// README for expected runtimes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced sweeps")
	xl := flag.Bool("xl", false, "extend the scaling tables (E3, E6) to n in {1024, 4096}; expect minutes per table (see README)")
	seed := flag.Int64("seed", 20200615, "root random seed")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default all)")
	ablations := flag.Bool("ablations", false, "also run the A1-A4 design-choice ablations")
	engine := flag.String("engine", "step", "round engine: step | legacy")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Quick: *quick, XL: *xl}
	switch *engine {
	case "step":
		cfg.Engine = sim.EngineStep
	case "legacy":
		cfg.Engine = sim.EngineLegacy
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		os.Exit(2)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	runners := []struct {
		id string
		f  func(experiments.Config) experiments.Table
	}{
		{"E1", experiments.E1TokenRouting},
		{"E2", experiments.E2HelperSets},
		{"E3", experiments.E3APSP},
		{"E4", experiments.E4CliqueSim},
		{"E5", experiments.E5KSSP},
		{"E6", experiments.E6SSSP},
		{"E7", experiments.E7Diameter},
		{"E8", experiments.E8KSSPLowerBound},
		{"E9", experiments.E9DiameterLowerBound},
		{"E10", experiments.E10RecvLoad},
		{"E11", experiments.E11ModeComparison},
	}
	if *ablations || len(want) > 0 {
		runners = append(runners,
			struct {
				id string
				f  func(experiments.Config) experiments.Table
			}{"A1", experiments.A1HelperQBoost},
			struct {
				id string
				f  func(experiments.Config) experiments.Table
			}{"A2", experiments.A2GlobalSendFactor},
			struct {
				id string
				f  func(experiments.Config) experiments.Table
			}{"A3", experiments.A3SkeletonHFactor},
			struct {
				id string
				f  func(experiments.Config) experiments.Table
			}{"A4", experiments.A4HashIndependence},
		)
	}

	failed := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		if len(want) == 0 && !*ablations && strings.HasPrefix(r.id, "A") {
			continue
		}
		start := time.Now()
		table := r.f(cfg)
		fmt.Println(table.String())
		fmt.Printf("(%s finished in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
		failed += len(table.Failures)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d guarantee check(s) FAILED\n", failed)
		os.Exit(1)
	}
}
