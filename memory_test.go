package hybrid_test

import (
	"runtime"
	"testing"

	hybrid "repro"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestDiameterAllocPerNodeScales is the memory gate of Algorithm 9: a node's
// share of what a Corollary 5.2 run allocates may at most double when the
// grid grows from 32×32 to 64×64. State of Θ(n) words per node, such as a
// dense all-sources exploration's 12·n bytes, grows it 2.2×; the h_v
// flood's n/8-byte bitsets keep it at about 1.6×. Skipped under -race,
// whose runtime instruments allocations.
func TestDiameterAllocPerNodeScales(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	perNode := func(side int) float64 {
		g := hybrid.GridGraph(side, side)
		net := hybrid.New(g, hybrid.WithSeed(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := net.Diameter(hybrid.DiamCor52(0.5)); err != nil {
			t.Fatalf("%d×%d grid: %v", side, side, err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(g.N())
	}
	small, large := perNode(32), perNode(64)
	t.Logf("TotalAlloc per node: %.1f KiB at n = 1024, %.1f KiB at n = 4096 (%.2f×)", small/1024, large/1024, large/small)
	if large > 2*small {
		t.Errorf("TotalAlloc per node grew %.2f× from n = 1024 to n = 4096 (%.1f → %.1f KiB), want at most 2×",
			large/small, small/1024, large/1024)
	}
}
