package main

import (
	"strings"
	"testing"

	hybrid "repro"
)

// TestVerifyLines pins what -verify prints on a correct run of each
// algorithm: the line and the exit code, on unweighted and weighted graphs.
func TestVerifyLines(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "grid", "-n", "49", "-algo", "apsp", "-seed", "7"},
			"apsp: 2401/2401 pair distances exact\n"},
		{[]string{"-graph", "sparse", "-n", "40", "-maxw", "9", "-algo", "apsp", "-seed", "3"},
			"apsp: 1600/1600 pair distances exact\n"},
		{[]string{"-graph", "grid", "-n", "36", "-algo", "apsp-baseline", "-seed", "2"},
			"apsp: 1296/1296 pair distances exact\n"},
		{[]string{"-graph", "sparse", "-n", "40", "-maxw", "9", "-algo", "sssp", "-source", "5", "-seed", "3"},
			"sssp from 5: 40/40 distances exact\n"},
		{[]string{"-graph", "geometric", "-n", "30", "-algo", "kssp", "-k", "2", "-seed", "4"},
			"kssp cor47 with k=2: worst approximation ratio 1.000\n"},
		{[]string{"-graph", "grid", "-n", "36", "-algo", "diameter", "-seed", "1"},
			"diameter cor52: estimate 10, true 10, ratio 1.000\n"},
	} {
		code, stdout, stderr := runCLI(c.args...)
		if code != 0 {
			t.Errorf("%v: exit %d, stderr:\n%s", c.args, code, stderr)
			continue
		}
		if !strings.Contains(stdout, c.want) {
			t.Errorf("%v: missing %q:\n%s", c.args, c.want, stdout)
		}
	}
}

// TestVerifyFlagsUnderestimates feeds the k-SSP and diameter checks one
// estimate below the truth: its ratio is under 1, so the worst ratio alone
// would pass it, and the check must name it instead.
func TestVerifyFlagsUnderestimates(t *testing.T) {
	g := hybrid.PathGraph(4)
	sources := []int{0, 3}
	dist := make([]map[int]int64, g.N())
	for u := range dist {
		dist[u] = map[int]int64{0: int64(u), 3: int64(3 - u)}
	}
	if worst, err := verifyKSSP(g, sources, dist); err != nil || worst != 1 {
		t.Fatalf("exact estimates: worst %v, err %v", worst, err)
	}
	dist[1][3] = 1 // d(1,3) = 2
	worst, err := verifyKSSP(g, sources, dist)
	if err == nil || err.Error() != "1/8 estimates below the true distance, first d~(1,3) = 1 < d = 2" {
		t.Errorf("one underestimate: err %v", err)
	}
	if worst != 1 {
		t.Errorf("one underestimate: worst ratio %v, want 1", worst)
	}

	if err := verifyDiameter(3, 3); err != nil {
		t.Errorf("exact diameter: %v", err)
	}
	if err := verifyDiameter(2, 3); err == nil || err.Error() != "estimate 2 below the true diameter 3" {
		t.Errorf("diameter underestimate: err %v", err)
	}
}
