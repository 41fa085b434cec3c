// Golden model-cost fixture: the full Metrics struct and a distance
// checksum of every public algorithm family at toy size, two algorithm
// seeds, cold and warm, pinned in testdata/model_costs.golden and asserted
// on every engine. The engine differential tests prove the engines equal to
// each other; this file proves them equal to what the tree produced when
// the fixture was generated, so an engine or machine change that claims to
// leave the model costs alone (rounds, messages, bits, loads) is checked
// against a record that does not depend on the code under test.
package hybrid_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	hybrid "repro"
)

// goldenRun executes one algorithm on nw and returns its Metrics and the
// distances (or the estimate) it produced, flattened in a canonical order.
type goldenRun func(nw *hybrid.Network) (hybrid.Metrics, []int64, error)

// goldenMatrix adapts the three APSP entry points.
func goldenMatrix(apsp func(nw *hybrid.Network) (*hybrid.APSPResult, error)) goldenRun {
	return func(nw *hybrid.Network) (hybrid.Metrics, []int64, error) {
		res, err := apsp(nw)
		if err != nil {
			return hybrid.Metrics{}, nil, err
		}
		var flat []int64
		for _, row := range res.Dist {
			flat = append(flat, row...)
		}
		return res.Metrics, flat, nil
	}
}

var (
	goldenAPSP         = goldenMatrix((*hybrid.Network).APSP)
	goldenAPSPBaseline = goldenMatrix((*hybrid.Network).APSPBaseline)
	goldenAPSPLocal    = goldenMatrix(func(nw *hybrid.Network) (*hybrid.APSPResult, error) { return nw.APSPLocalOnly(12) })
)

func goldenKSSP(sources []int, spec hybrid.KSSPSpec) goldenRun {
	return func(nw *hybrid.Network) (hybrid.Metrics, []int64, error) {
		res, err := nw.KSSP(sources, spec)
		if err != nil {
			return hybrid.Metrics{}, nil, err
		}
		var flat []int64
		for _, byNode := range res.Dist {
			srcs := make([]int, 0, len(byNode))
			for s := range byNode {
				srcs = append(srcs, s)
			}
			sort.Ints(srcs)
			for _, s := range srcs {
				flat = append(flat, int64(s), byNode[s])
			}
		}
		return res.Metrics, flat, nil
	}
}

func goldenSSSP(nw *hybrid.Network) (hybrid.Metrics, []int64, error) {
	res, err := nw.SSSP(3)
	if err != nil {
		return hybrid.Metrics{}, nil, err
	}
	return res.Metrics, res.Dist, nil
}

func goldenDiameter(diam func(nw *hybrid.Network) (*hybrid.DiameterResult, error)) goldenRun {
	return func(nw *hybrid.Network) (hybrid.Metrics, []int64, error) {
		res, err := diam(nw)
		if err != nil {
			return hybrid.Metrics{}, nil, err
		}
		return res.Metrics, []int64{res.Estimate}, nil
	}
}

func goldenDiameterSpec(spec hybrid.DiameterSpec) goldenRun {
	return goldenDiameter(func(nw *hybrid.Network) (*hybrid.DiameterResult, error) { return nw.Diameter(spec) })
}

// goldenRouting routes one token from every node v to (5v+1) mod n with
// every third node also receiving a second one: S = R = V, so the session
// and both helper families span the whole graph.
func goldenRouting(nw *hybrid.Network) (hybrid.Metrics, []int64, error) {
	n := nw.N()
	specs := make([]hybrid.RoutingSpec, n)
	for v := range specs {
		specs[v] = hybrid.RoutingSpec{InS: true, InR: true, KS: 2, KR: 4, PS: 1, PR: 1}
	}
	send := func(s, r int, i, val int64) {
		l := hybrid.RoutingLabel{S: s, R: r, I: i}
		specs[s].Send = append(specs[s].Send, hybrid.RoutingToken{Label: l, Value: val})
		specs[r].Expect = append(specs[r].Expect, l)
	}
	for v := 0; v < n; v++ {
		send(v, (5*v+1)%n, 0, int64(1000+v))
		if v%3 == 0 {
			send(v, (v+n/2)%n, 1, int64(-v))
		}
	}
	out, m, err := nw.TokenRouting(specs)
	if err != nil {
		return hybrid.Metrics{}, nil, err
	}
	var flat []int64
	for _, toks := range out {
		for _, tok := range toks {
			flat = append(flat, int64(tok.S), int64(tok.R), tok.I, tok.Value)
		}
	}
	return m, flat, nil
}

// goldenRow renders one fixture line: the case, seed and cache mode, a
// checksum of the flattened output, and the full Metrics.
func goldenRow(name string, seed int64, mode string, m hybrid.Metrics, flat []int64) string {
	h := fnv.New64a()
	var w [8]byte
	for _, d := range flat {
		binary.LittleEndian.PutUint64(w[:], uint64(d))
		h.Write(w[:])
	}
	return fmt.Sprintf("%s seed=%d %s sum=%016x metrics=%+v\n", name, seed, mode, h.Sum64(), m)
}

// goldenCase is one fixture instance: an algorithm family on a graph.
type goldenCase struct {
	name string
	g    *hybrid.Graph
	run  goldenRun
}

// goldenRealMMSources are the sources of the kssp-realmm case.
var goldenRealMMSources = []int{0, 7, 19, 33}

// goldenCases returns the fixture's instances in row order; every call draws
// the same graphs.
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewSource(11))
	weighted := hybrid.WithRandomWeights(hybrid.GridGraph(6, 6), 9, rng)
	return []goldenCase{
		{"apsp/grid7x7", hybrid.GridGraph(7, 7), goldenAPSP},
		{"apsp/geometric48", hybrid.GeometricGraph(48, 0.3, rng), goldenAPSP},
		{"apsp/tree40", hybrid.RandomTreeGraph(40, rng), goldenAPSP},
		{"kssp-realmm/sparse40", hybrid.WithRandomWeights(hybrid.SparseGraph(40, 1.2, rng), 100, rng),
			goldenKSSP(goldenRealMMSources, hybrid.KSSPRealMM(2))},
		{"kssp-cor46/wgrid6x6", weighted, goldenKSSP([]int{1, 20}, hybrid.Cor46(0.5))},
		{"sssp/wgrid6x6", weighted, goldenSSSP},
		{"diameter-cor52/grid6x6", hybrid.GridGraph(6, 6), goldenDiameterSpec(hybrid.DiamCor52(0.5))},
		// Appended when the algorithms' blocking forms were deleted, recorded
		// from them (EngineLegacy ran the blocking forms then); the rows above
		// are older.
		{"apsp-baseline/grid6x6", hybrid.GridGraph(6, 6), goldenAPSPBaseline},
		{"apsp-local/grid6x6", hybrid.GridGraph(6, 6), goldenAPSPLocal},
		{"kssp-cor47/wgrid6x6", weighted, goldenKSSP([]int{0, 17, 35}, hybrid.Cor47(0.5))},
		{"kssp-cor48/wgrid6x6", weighted, goldenKSSP([]int{4, 30}, hybrid.Cor48(0.5))},
		{"diameter-cor53/grid6x6", hybrid.GridGraph(6, 6), goldenDiameterSpec(hybrid.DiamCor53(0.5))},
		{"diameter-realmm/grid5x5", hybrid.GridGraph(5, 5), goldenDiameterSpec(hybrid.DiamRealMM(2))},
		{"wdiameter/wgrid6x6", weighted, goldenDiameter((*hybrid.Network).WeightedDiameterApprox)},
		{"routing/grid6x6", hybrid.GridGraph(6, 6), goldenRouting},
	}
}

// goldenBody runs the whole matrix on one engine and renders it.
func goldenBody(t *testing.T, eng hybrid.Engine) string {
	t.Helper()
	var b strings.Builder
	for _, c := range goldenCases() {
		for _, seed := range []int64{1, 2} {
			nw := hybrid.New(c.g, hybrid.WithSeed(seed), hybrid.WithEngine(eng))
			for _, mode := range []string{"cold", "warm"} {
				m, flat, err := c.run(nw)
				if err != nil {
					t.Fatalf("%s seed=%d %s on %s: %v", c.name, seed, mode, eng, err)
				}
				b.WriteString(goldenRow(c.name, seed, mode, m, flat))
			}
		}
	}
	return b.String()
}

// TestGoldenModelCosts asserts the fixture on every engine. Regenerate
// (from EngineStep) with: go test -run TestGoldenModelCosts -update .
func TestGoldenModelCosts(t *testing.T) {
	path := filepath.Join("testdata", "model_costs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(goldenBody(t, hybrid.EngineStep)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			if got := goldenBody(t, eng); got != string(want) {
				t.Errorf("model costs on %s diverged from %s (regenerate with -update only if the protocol changed on purpose):\ngot:\n%s\nwant:\n%s",
					eng, path, got, want)
			}
		})
	}
}
