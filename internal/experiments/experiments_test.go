package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every experiment at quick scale and fails on
// any recorded guarantee violation. This is the repository's end-to-end
// regression: every theorem's claim is re-checked.
func TestAllExperimentsQuick(t *testing.T) { runQuick(t, "E", 1) }

// TestAblationsQuick runs the A1-A4 ablations at quick scale.
func TestAblationsQuick(t *testing.T) { runQuick(t, "A", 2) }

// runQuick runs the Index entries whose ID starts with prefix at quick
// scale under seed: each must fill its table, carry its entry's ID, and
// record no guarantee violation.
func runQuick(t *testing.T, prefix string, seed int64) {
	for _, e := range Index {
		if !strings.HasPrefix(e.ID, prefix) {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			table := e.Run(Config{Seed: seed, Quick: true})
			if table.ID != e.ID {
				t.Fatalf("Index entry %s built table %q", e.ID, table.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", table.ID)
			}
			for _, f := range table.Failures {
				t.Errorf("%s: %s", table.ID, f)
			}
			if !strings.Contains(table.String(), table.ID) {
				t.Fatalf("rendering broken")
			}
		})
	}
}

func TestFitExponent(t *testing.T) {
	xs := []float64{10, 100, 1000}
	ys := []float64{5, 50, 500} // slope 1
	if e := FitExponent(xs, ys); e < 0.99 || e > 1.01 {
		t.Fatalf("FitExponent = %v, want 1", e)
	}
	sq := []float64{100, 10000, 1000000}
	if e := FitExponent(xs, sq); e < 1.99 || e > 2.01 {
		t.Fatalf("FitExponent = %v, want 2", e)
	}
	if e := FitExponent([]float64{1}, []float64{1}); e == e { // NaN check
		t.Fatalf("single point should give NaN, got %v", e)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Notef("note %d", 5)
	tab.Failf("bad %s", "x")
	s := tab.String()
	for _, want := range []string{"T: demo", "a", "bb", "note 5", "FAIL: bad x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q in:\n%s", want, s)
		}
	}
}
