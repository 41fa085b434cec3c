// Package experiments regenerates every evaluable artifact of the paper
// (the per-experiment index lives in DESIGN.md; the recorded outcomes in
// EXPERIMENTS.md). Each experiment returns a Table whose rows are the
// series the paper's theorems predict; the bench harness (bench_test.go)
// and cmd/benchtables both render them.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Config scales the experiment sweeps.
type Config struct {
	// Seed roots all randomness.
	Seed int64
	// Quick restricts sweeps to the smallest sizes (used by -short runs).
	Quick bool
	// XL extends the scaling tables (E3, E6) to n ∈ {1024, 4096}. Ignored
	// when Quick is set.
	// Expect minutes, not seconds; see the README's experiments section.
	XL bool
	// Engine selects the round engine the experiments run on (default
	// EngineStep). Results are engine-independent.
	Engine sim.Engine
}

// xlSizes appends the XL scaling sizes when enabled.
func (c Config) xlSizes(sizes []int) []int {
	if c.XL && !c.Quick {
		sizes = append(sizes, 1024, 4096)
	}
	return sizes
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Failures collects guarantee violations (empty = all checks passed).
	Failures []string
}

// Add appends a row.
func (t *Table) Add(cols ...string) { t.Rows = append(t.Rows, cols) }

// Failf records a guarantee violation.
func (t *Table) Failf(format string, args ...interface{}) {
	t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
}

// Notef appends a note line.
func (t *Table) Notef(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, f := range t.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return b.String()
}

// FitExponent returns the least-squares slope of log(y) over log(x) — the
// empirical growth exponent of a measured series.
func FitExponent(xs []float64, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// All runs every experiment.
func All(cfg Config) []Table {
	return []Table{
		E1TokenRouting(cfg),
		E2HelperSets(cfg),
		E3APSP(cfg),
		E4CliqueSim(cfg),
		E5KSSP(cfg),
		E6SSSP(cfg),
		E7Diameter(cfg),
		E8KSSPLowerBound(cfg),
		E9DiameterLowerBound(cfg),
		E10RecvLoad(cfg),
		E11ModeComparison(cfg),
	}
}
