package hybrid_test

import (
	"slices"
	"sort"
	"testing"

	hybrid "repro"
	"repro/internal/diameter"
	"repro/internal/helpers"
	"repro/internal/hybridapsp"
	"repro/internal/kssp"
	"repro/internal/routing"
	"repro/internal/sim"
)

// TestGuardCostsOneAggregation measures what the cross-run caches charge a
// cold facade run. Each cache consults its store through warm.Guard, one
// global max-aggregation (2·ceil(log2 n) rounds, 2(n-1) messages), and on a
// cold run the agreement ends in a rebuild that is the uncached
// construction. The same pipeline is run a second time with a fresh cluster
// cache as its only cache: the k-SSP and diameter runs build the S and R
// helper families at one µ, and the second build reuses the first one's
// clusters inside the run, a saving no uncached run has. Both runs must give
// the same answer, and the facade run's Metrics must exceed the other's by
// exactly one aggregation per cache-trace event the other lacks, every
// other field equal. events pins that count.
func TestGuardCostsOneAggregation(t *testing.T) {
	type bareRun func(g *hybrid.Graph, cfg sim.Config, rp routing.Params) (hybrid.Metrics, []int64, error)
	bare := map[string]struct {
		events int
		run    bareRun
	}{
		"apsp/grid7x7": {1, func(g *hybrid.Graph, cfg sim.Config, rp routing.Params) (hybrid.Metrics, []int64, error) {
			out, m, err := sim.RunPipeline(g, cfg, hybridapsp.Pipeline(hybridapsp.Params{Routing: rp}))
			return m, slices.Concat(out...), err
		}},
		"kssp-realmm/sparse40": {1, func(g *hybrid.Graph, cfg sim.Config, rp routing.Params) (hybrid.Metrics, []int64, error) {
			isSource := make([]bool, g.N())
			for _, s := range goldenRealMMSources {
				isSource[s] = true
			}
			out, m, err := sim.RunPipeline(g, cfg, kssp.Pipeline(isSource, len(goldenRealMMSources), kssp.RealMM(2), kssp.Params{Routing: rp}))
			var flat []int64
			for _, res := range out {
				res = slices.Clone(res)
				sort.Slice(res, func(i, j int) bool { return res[i].Source < res[j].Source })
				for _, sd := range res {
					flat = append(flat, int64(sd.Source), sd.Dist)
				}
			}
			return m, flat, err
		}},
		"diameter-cor52/grid6x6": {1, func(g *hybrid.Graph, cfg sim.Config, rp routing.Params) (hybrid.Metrics, []int64, error) {
			out, m, err := sim.RunPipeline(g, cfg, diameter.Pipeline(diameter.Corollary52(0.5, 0), kssp.Params{Routing: rp}))
			if err != nil {
				return m, nil, err
			}
			return m, out[:1], nil
		}},
	}
	covered := 0
	for _, c := range goldenCases() {
		b, ok := bare[c.name]
		if !ok {
			continue
		}
		covered++
		for _, eng := range allEngines {
			events := 0
			nw := hybrid.New(c.g, hybrid.WithSeed(1), hybrid.WithEngine(eng), hybrid.WithCacheTrace(func(string) { events++ }))
			m, flat, err := c.run(nw)
			if err != nil {
				t.Fatalf("%s on %s, facade: %v", c.name, eng, err)
			}
			clusters := helpers.NewClusterCache()
			clusters.SetTrace(func(string) { events-- })
			bm, bflat, err := b.run(c.g, sim.Config{Seed: 1, Engine: eng}, routing.Params{Helpers: helpers.Params{Clusters: clusters}})
			if err != nil {
				t.Fatalf("%s on %s, cluster cache only: %v", c.name, eng, err)
			}
			if !slices.Equal(flat, bflat) {
				t.Errorf("%s on %s: the cold facade run and the cluster-cache-only run give different answers", c.name, eng)
			}
			if events != b.events {
				t.Errorf("%s on %s: the cold run held %d cache agreements beyond the cluster cache's, want %d", c.name, eng, events, b.events)
			}
			n, logN := c.g.N(), sim.Log2Ceil(c.g.N())
			want := bm
			want.Rounds += events * 2 * logN
			want.GlobalMsgs += int64(events * 2 * (n - 1))
			want.GlobalBits += int64(events * 2 * (n - 1) * (6*logN + 16))
			if m != want {
				t.Errorf("%s on %s: cold facade run %+v, want the cluster-cache-only run plus %d aggregations %+v", c.name, eng, m, events, want)
			}
		}
	}
	if covered != len(bare) {
		t.Fatalf("%d of %d instances found in the golden set", covered, len(bare))
	}
}
