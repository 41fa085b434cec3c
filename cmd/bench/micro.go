package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	hybrid "repro"
	"repro/internal/bitrand"
	"repro/internal/clique"
	"repro/internal/dist"
	"repro/internal/dist/wire"
	"repro/internal/flatmap"
	"repro/internal/serve"
	"repro/internal/sim"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

func perOp(c cost, ops int) float64 { return float64(c.wall) / float64(ops) }

// dataStructures probes the two hot leaf packages of every sim workload:
// flatmap.Set (dedup sets of every flood) and the k-wise independent hash
// that picks routing intermediates (k = 3·ceil(log2 n), as routing uses it).
func (p *prober) dataStructures() {
	keys := make([]uint64, p.c.sz.microKeys)
	rng := rand.New(rand.NewSource(p.c.seed))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var set flatmap.Set
	add := p.span("flatmap.set_add", func() {
		for _, k := range keys {
			set.Add(k)
		}
	})
	has := p.span("flatmap.set_has", func() {
		for _, k := range keys {
			if set.Has(k) {
				sink++
			}
		}
	})
	p.set("flatmap.set_add_ns", "ns", perOp(add, len(keys)))
	p.set("flatmap.set_has_ns", "ns", perOp(has, len(keys)))
	var err error
	if set.Len() > len(keys) || set.Len() == 0 {
		err = fmt.Errorf("set holds %d keys after %d adds", set.Len(), len(keys))
	}
	p.check("flatmap", err)

	n := p.g.N()
	h := bitrand.NewKWiseHash(3*sim.Log2Ceil(n), n, rng)
	hash := p.span("bitrand.kwise_hash", func() {
		for _, k := range keys {
			sink += h.Hash(k)
		}
	})
	p.set("bitrand.kwise_hash_ns", "ns", perOp(hash, len(keys)))
}

// groundTruth times the sequential APSP every set-up runs.
func (p *prober) groundTruth() {
	c := p.span("graph.apsp", func() { sink += len(hybrid.ExactAPSP(p.g)) })
	p.set("graph.apsp_ms", "ms", ms(c.wall))
}

// cliqueMM times the semiring matrix multiplication standalone, on a
// CLIQUE as large as the skeleton the k-SSP workload simulates it on
// (n^x nodes, x = 6/11), and checks its distances.
func (p *prober) cliqueMM(x float64) {
	n := float64(p.g.N())
	q := int(math.Pow(n, x))
	if q < 4 {
		q = 4
	}
	rng := rand.New(rand.NewSource(p.c.seed))
	g := hybrid.WithRandomWeights(hybrid.SparseGraph(q, 1.2, rng), 100, rng)
	var nodes []clique.Node
	var err error
	c := p.span("clique.mm", func() { nodes, err = clique.Run(clique.NewMM(q, false), clique.AdjacencyInputs(g)) })
	if err == nil {
		want := hybrid.ExactAPSP(g)
		for v, node := range nodes {
			if got := node.(clique.DistanceNode).Distances(); mismatches([][]int64{got}, want[v:v+1]) > 0 {
				err = fmt.Errorf("MM row %d differs from sequential APSP", v)
				break
			}
		}
	}
	p.check("clique.mm", err)
	p.set("clique.mm_ms", "ms", ms(c.wall))
}

// warmCache probes persist and the three cache.go files around the warm
// workload's cache directory: save and load times, file sizes, the
// hit/miss sequence of a warm start, the rounds it saves, and what a start
// from the structural section alone (another algorithm seed) still costs.
func (p *prober) warmCache(in *simInstance, warmRounds int) {
	p.set("persist.save_ms", "ms", in.saveMS)

	hits, misses := 0, 0
	nw := in.network(nil, hybrid.WithCacheTrace(func(event string) {
		if strings.HasSuffix(event, "hit") {
			hits++
		} else {
			misses++
		}
	}))
	var status hybrid.CacheLoadStatus
	var err error
	c := p.span("persist.load", func() { status, err = nw.LoadCache() })
	if err == nil && !(status.Structural && status.Seed) {
		err = fmt.Errorf("restored %+v, want both sections", status)
	}
	p.check("persist.load", err)
	p.set("persist.load_ms", "ms", ms(c.wall))
	structural, seedFile := nw.CacheFiles()
	p.set("persist.struct_bytes", "B", float64(structural.Bytes))
	p.set("persist.seed_bytes", "B", float64(seedFile.Bytes))

	p.span("cache.warm_run", func() { _, err = nw.APSP() })
	p.check("cache.warm_run", err)
	p.set("cache.hits", "count", float64(hits))
	p.set("cache.misses", "count", float64(misses))
	p.set("cache.rounds_saved", "rounds", float64(in.coldMetrics.Rounds-warmRounds))

	cross := hybrid.New(in.g, append(in.spec.engine.options(),
		hybrid.WithSeed(algSeed+1), hybrid.WithCacheDir(in.cacheDir))...)
	var res *hybrid.APSPResult
	p.span("cache.cross_seed_run", func() {
		if status, err = cross.LoadCache(); err == nil {
			res, err = cross.APSP()
		}
	})
	if err == nil && (!status.Structural || status.Seed) {
		err = fmt.Errorf("cross-seed load restored %+v, want the structural section only", status)
	}
	if err == nil && mismatches(res.Dist, in.want) > 0 {
		err = fmt.Errorf("cross-seed distances differ from ground truth")
	}
	p.check("cache.cross_seed_run", err)
	if res != nil {
		p.set("cache.cross_seed_rounds", "rounds", float64(res.Metrics.Rounds))
	}
}

// distLayers probes what only EngineDist executes: the wire codec on a
// cap-full round's batch, the frame envelope on 4 KiB, and a real router
// with spawned workers routing empty and cap-full rounds.
func (p *prober) distLayers(in *simInstance, distWall time.Duration) {
	n := p.g.N()
	logN := sim.Log2Ceil(n)
	shardSize := (n + distWorkers - 1) / distWorkers
	outgoing := make([][]sim.GlobalMsg, distWorkers)
	var all []sim.GlobalMsg
	for src := 0; src < n; src++ {
		for k := 0; k < logN; k++ {
			m := sim.GlobalMsg{Src: src, Dst: (src + 1 + 37*k) % n, Kind: sim.Kind(k), F0: int64(src), F1: int64(k), F2: int64(src * k)}
			outgoing[m.Dst/shardSize] = append(outgoing[m.Dst/shardSize], m)
			all = append(all, m)
		}
	}

	const codecReps = 200
	var buf []byte
	enc := p.span("wire.encode", func() {
		for i := 0; i < codecReps; i++ {
			buf = wire.AppendMsgs(buf[:0], all)
		}
	})
	var back []sim.GlobalMsg
	var err error
	dec := p.span("wire.decode", func() {
		for i := 0; i < codecReps && err == nil; i++ {
			back, err = wire.DecodeMsgs(buf)
		}
	})
	if err == nil && (len(back) != len(all) || back[len(back)-1] != all[len(all)-1]) {
		err = fmt.Errorf("decoded batch differs from the encoded one")
	}
	p.check("wire.codec", err)
	p.set("wire.encode_ns_per_msg", "ns", perOp(enc, codecReps*len(all)))
	p.set("wire.decode_ns_per_msg", "ns", perOp(dec, codecReps*len(all)))
	p.set("wire.bytes_per_msg", "B", float64(len(buf))/float64(len(all)))

	payload := make([]byte, 4096)
	rand.New(rand.NewSource(p.c.seed)).Read(payload)
	const frameReps = 2000
	var frame []byte
	var frameErr error
	fr := p.span("wire.frame", func() {
		for i := 0; i < frameReps && frameErr == nil; i++ {
			frame = wire.AppendFrame(frame[:0], wire.Frame{Type: wire.FrameRound, Round: i, Payload: payload})
			_, _, frameErr = wire.DecodeFrame(frame)
		}
	})
	p.check("wire.frame", frameErr)
	p.set("wire.frame_us_4k", "us", perOp(fr, frameReps)/1e3)

	var router *dist.Router
	var spawnErr error
	round := 0
	spawn := p.span("dist.spawn", func() {
		router, spawnErr = dist.New(sim.DistRouterConfig{N: n, LogN: logN, Workers: distWorkers, ShardSize: shardSize})
		if spawnErr == nil {
			_, _, spawnErr = router.RouteRound(round, make([][]sim.GlobalMsg, distWorkers))
		}
	})
	p.check("dist.spawn", spawnErr)
	if router != nil {
		defer router.Close()
	}
	if spawnErr != nil {
		return
	}
	p.set("dist.spawn_ms", "ms", ms(spawn.wall))
	const routeReps = 300
	route := func(name string, batch [][]sim.GlobalMsg, wantMsgs int64) {
		var err error
		c := p.span(name, func() {
			for i := 0; i < routeReps && err == nil; i++ {
				round++
				var st sim.DistRoundStats
				if _, st, err = router.RouteRound(round, batch); err == nil && st.GlobalMsgs != wantMsgs {
					err = fmt.Errorf("round delivered %d messages, want %d", st.GlobalMsgs, wantMsgs)
				}
			}
		})
		p.check(name, err)
		p.set(name, "us", perOp(c, routeReps)/1e3)
	}
	route("dist.route_round_us_empty", make([][]sim.GlobalMsg, distWorkers), 0)
	route("dist.route_round_us_full", outgoing, int64(len(all)))
	p.set("dist.slowdown_x", "ratio", distWall.Seconds()/in.stepWall.Seconds())
}

// serveLayers probes internal/serve without a socket — table build,
// publish, reload, and the two query handlers on a ResponseRecorder — and
// reads the closed-loop latencies off the traced pass that just ran.
func (p *prober) serveLayers(in *serveInstance, pass cost) {
	var next [][]int
	c := p.span("graph.next_hops", func() { next = hybrid.NextHops(in.g, in.dist) })
	p.set("graph.next_hops_ms", "ms", ms(c.wall))

	var tables *serve.Tables
	var err error
	c = p.span("serve.new_tables", func() { tables, err = serve.NewTables(in.g, in.dist, next, serve.BuildInfo{Graph: "grid"}) })
	p.check("serve.new_tables", err)
	if err != nil {
		return
	}
	p.set("serve.new_tables_ms", "ms", ms(c.wall))

	srv := serve.New(tables)
	const publishReps = 10000
	c = p.span("serve.publish", func() {
		for i := 0; i < publishReps; i++ {
			srv.Publish(tables)
		}
	})
	p.set("serve.publish_us", "us", perOp(c, publishReps)/1e3)

	srv.SetRebuild(func() (*serve.Tables, error) { return tables, nil })
	const reloadReps = 1000
	c = p.span("serve.reload", func() {
		for i := 0; i < reloadReps && err == nil; i++ {
			_, err = srv.Reload()
		}
	})
	p.check("serve.reload", err)
	p.set("serve.reload_ms", "ms", perOp(c, reloadReps)/1e6)

	handler := srv.Handler()
	handle := func(name, path string, route bool) float64 {
		var reqs []*http.Request
		for _, q := range in.queries {
			if q.route == route && len(reqs) < 2000 {
				reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("%s?s=%d&t=%d", path, q.s, q.t), nil))
			}
		}
		var err error
		bad := 0
		c := p.span(name, func() {
			for _, r := range reqs {
				w := httptest.NewRecorder()
				handler.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					bad++
				}
			}
		})
		if bad > 0 {
			err = fmt.Errorf("%d of %d handler calls did not answer 200", bad, len(reqs))
		}
		p.check(name, err)
		return perOp(c, len(reqs))
	}
	distNS := handle("serve.handler_distance", "/distance", false)
	routeNS := handle("serve.handler_route", "/route", true)
	p.set("serve.handler_distance_ns", "ns", distNS)
	p.set("serve.handler_route_ns", "ns", routeNS)

	p50, p95, p99, p999 := in.latencyStats()
	p.set("serve.query_p50_us", "us", p50)
	p.set("serve.query_p95_us", "us", p95)
	p.set("serve.query_p99_us", "us", p99)
	p.set("serve.query_p999_us", "us", p999)
	p.set("serve.queries_per_s", "1/s", float64(len(in.queries))/pass.wall.Seconds())
	// What the socket, net/http and the client add to the median query
	// (three of four are /distance, so the median query is one).
	p.set("serve.http_overhead_us", "us", p50-distNS/1e3)
	shed, hops := in.replyCounts()
	p.set("serve.shed_429", "count", float64(shed))
	p.set("serve.route_hops_mean", "hops", hops)
}
