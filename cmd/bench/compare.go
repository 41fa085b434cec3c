package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// compareMain implements `bench compare a.jsonl b.jsonl [BENCHMARK.json]`:
// for every (workload, end-to-end metric) it prints both sides' medians over
// their untraced runs, the change, the bound from BENCHMARK.json, and a
// verdict; then the same for the model costs of the traced runs (rounds,
// global messages, stretch; bound 0) and for the share of failed operations:
//
//	ok          b's median is not worse than a's by more than the bound
//	worse       it is
//	unresolved  a side's spread (q3-q1 over its runs, as a share of its
//	            median) is wider than the bound, and it is not the case
//	            that every run of b reads better than every run of a
//
// With one run per side the spread is that of the run's own repetitions.
// It exits 1 if any row is worse, and 2 on a usage or input error.
func compareMain(args []string) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.jsonl b.jsonl [BENCHMARK.json]")
		return 2
	}
	spec := "BENCHMARK.json"
	if len(args) == 3 {
		spec = args[2]
	}
	bounds, err := readBounds(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b []record
		if b, err = readRecords(args[1]); err == nil {
			return compare(os.Stdout, a, b, bounds)
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 2
}

// bound is one end_to_end row of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (pass the path of BENCHMARK.json as the third argument)", err)
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return spec.EndToEnd, nil
}

// side is one file's runs of one metric on one workload.
type side struct {
	values []float64 // one per run: the run's median
	spread float64   // (q3-q1)/median
	median float64
}

func gather(recs []record, workload, metric string, trace int) side {
	var s side
	var inRun float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			s.values = append(s.values, m.Value)
			if m.N > 1 && m.Value != 0 {
				inRun = math.Max(inRun, (m.Q3-m.Q1)/m.Value)
			}
		}
	}
	if len(s.values) == 0 {
		return s
	}
	q1, med, q3 := quartiles(s.values)
	s.median = med
	if len(s.values) > 1 && med != 0 {
		s.spread = (q3 - q1) / med
	} else {
		s.spread = inRun
	}
	return s
}

// modelCosts are the traced runs' counts that repeat exactly for a fixed
// seed: between two runs of the same code they must be identical, and a
// change may not raise them at all.
var modelCosts = []bound{
	{Name: "sim.rounds", Better: "lower"},
	{Name: "sim.global_msgs", Better: "lower"},
	{Name: "sim.max_stretch", Better: "lower"},
}

// failures sums failed and attempted operations over a workload's runs,
// traced ones included.
func failures(recs []record, workload string) (failed, attempted int) {
	for _, r := range recs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

func compare(out io.Writer, a, b []record, bounds []bound) int {
	code := 0
	fmt.Fprintf(out, "%-24s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	row := func(workload string, bd bound, trace int) {
		sa, sb := gather(a, workload, bd.Name, trace), gather(b, workload, bd.Name, trace)
		if len(sa.values) == 0 || len(sb.values) == 0 || sa.median == 0 {
			return // not measured on one side, or a layer the workload bypasses
		}
		// worsening is positive when b is worse than a.
		worsening := (sb.median - sa.median) / sa.median
		if bd.Better == "higher" {
			worsening = -worsening
		}
		allBetter := true
		for _, x := range sa.values {
			for _, y := range sb.values {
				if (bd.Better == "higher") != (y > x) || y == x {
					allBetter = false
				}
			}
		}
		spread := math.Max(sa.spread, sb.spread)
		verdict := "ok"
		switch {
		case worsening > bd.Bound:
			verdict, code = "worse", 1
		case spread > bd.Bound && !allBetter:
			verdict = "unresolved"
		}
		fmt.Fprintf(out, "%-24s %-16s %12.6g %12.6g %+7.2f%% %6.1f%% %6.2f%%  %s\n",
			workload, bd.Name, sa.median, sb.median, 100*(sb.median-sa.median)/sa.median, 100*bd.Bound, 100*spread, verdict)
	}
	for _, w := range workloads {
		for _, bd := range bounds {
			row(w.name, bd, 0)
		}
		for _, bd := range modelCosts {
			row(w.name, bd, 1)
		}
		// A gain does not count when more operations fail.
		fa, na := failures(a, w.name)
		fb, nb := failures(b, w.name)
		if na == 0 || nb == 0 {
			continue
		}
		verdict := "ok"
		if float64(fb)/float64(nb) > float64(fa)/float64(na) {
			verdict, code = "worse", 1
		}
		fmt.Fprintf(out, "%-24s %-16s %12s %12s %8s %7s %7s  %s\n", w.name, "failed/attempted",
			fmt.Sprintf("%d/%d", fa, na), fmt.Sprintf("%d/%d", fb, nb), "", "", "", verdict)
	}
	return code
}
