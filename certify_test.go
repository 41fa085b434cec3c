package hybrid_test

import (
	"testing"

	hybrid "repro"
)

// TestCertifyAcceptsGroundTruth: Certify accepts Dijkstra's row of every
// source of every graph in testdata/model_costs.golden and of every
// instance TestRandomizedEnginesAgree draws.
func TestCertifyAcceptsGroundTruth(t *testing.T) {
	var graphs []*hybrid.Graph
	for _, c := range goldenCases() {
		graphs = append(graphs, c.g)
	}
	for _, d := range randomizedDraws(10) {
		g, _ := randomInstance(d.seed, d.graphKind, d.size, d.weighted && d.algo%5 != 4)
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		for src := 0; src < g.N(); src++ {
			if err := hybrid.Certify(g, src, hybrid.Dijkstra(g, src)); err != nil {
				t.Fatalf("graph %d (n=%d): %v", i, g.N(), err)
			}
		}
	}
}
