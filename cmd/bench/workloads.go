package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	hybrid "repro"
	"repro/internal/graph"
	"repro/internal/sim"
)

// sizes fixes every input dimension. full is what BENCHMARK.json's workload
// names promise; toy is what main_test.go drives through the same code.
type sizes struct {
	gridBig, gridMid, gridSmall int // grid sides
	geoN                        int
	geoRadius                   float64
	sparseN, ksspSources        int
	serveQueries, serveWarmup   int // per closed-loop pass, before the first pass
	microKeys                   int // flatmap / hash probe key count
	microRounds                 int // engine probe round count
}

var (
	full = sizes{gridBig: 32, gridMid: 24, gridSmall: 16, geoN: 576, geoRadius: 0.15,
		sparseN: 400, ksspSources: 16, serveQueries: 50000, serveWarmup: 20000,
		microKeys: 1 << 20, microRounds: 2000}
	toy = sizes{gridBig: 8, gridMid: 7, gridSmall: 6, geoN: 64, geoRadius: 0.3,
		sparseN: 64, ksspSources: 4, serveQueries: 1500, serveWarmup: 300,
		microKeys: 1 << 12, microRounds: 50}
)

// algSeed is hybrid.WithSeed of every Network the benchmark builds: the
// algorithms' own coin flips. It is not derived from --seed, because over it
// the cost of one and the same input is a distribution no bound survives
// (seeds 1-16 on the 32x32 grid: 14 165-16 543 rounds, 2.5-3.8 s). Seed 1 is
// the point the legacy BENCH_*.json rows were taken at.
const algSeed = 1

// config is one run of one workload.
type config struct {
	workload string
	seed     int64 // generates the inputs: graph, weights, query stream
	seconds  float64
	minReps  int
	sz       sizes
}

// workload is one named set of inputs. setup generates them from c.seed and
// does everything a user pays before the first operation.
type workload struct {
	name  string
	why   string
	setup func(c *config) (instance, error)
}

// instance is a set-up workload. op performs one operation — one facade
// call on a fresh Network, or one closed-loop pass over the query stream —
// and verifies its output outside the timed region. rep numbers the spans.
type instance interface {
	op(tr *tracer, parent, rep int) opResult
	close()
}

// opResult is one operation: what it cost and whether its output was right.
type opResult struct {
	cost      cost
	attempted int
	failed    int
	errs      []string // first few failure reasons, for the log

	// Sim workloads only.
	metrics  hybrid.Metrics
	stretch  float64
	checksum uint64
	callSpan int
}

func (r *opResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{
		name: "apsp_grid_1024",
		why:  "cold Theorem 1.1 APSP on the 32x32 grid every legacy artifact shares: routing session set-up ~40% of the time, publish ~25%, Route ~20%",
		setup: func(c *config) (instance, error) {
			return setupSim(c, simSpec{graph: grid(c.sz.gridBig), engine: stepEngine})
		},
	},
	{
		name: "apsp_geometric_576",
		why:  "same algorithm on a dense local graph (10x the LOCAL bits, same global traffic): local delivery and cluster flooding dominate",
		setup: func(c *config) (instance, error) {
			return setupSim(c, simSpec{
				graph: func(rng *rand.Rand) *hybrid.Graph {
					return hybrid.GeometricGraph(c.sz.geoN, c.sz.geoRadius, rng)
				},
				engine: stepEngine,
			})
		},
	},
	{
		name: "kssp_mm_sparse_400",
		why:  "Theorem 1.2 through real-message CLIQUE simulation: 5x the rounds at 0.4x the nodes, cliquesim (a RouteMachine per simulated round) ~90% of the time, session set-up bypassed",
		setup: func(c *config) (instance, error) {
			return setupSim(c, simSpec{
				graph: func(rng *rand.Rand) *hybrid.Graph {
					return hybrid.WithRandomWeights(hybrid.SparseGraph(c.sz.sparseN, 1.2, rng), 100, rng)
				},
				engine: stepEngine,
				kssp:   true,
			})
		},
	},
	{
		name: "apsp_grid_1024_warm",
		why:  "what a restart pays: LoadCache + APSP with session, cluster and skeleton caches hit, so persist and the cache code run and routing set-up is bypassed",
		setup: func(c *config) (instance, error) {
			return setupSim(c, simSpec{graph: grid(c.sz.gridBig), engine: stepEngine, warm: true})
		},
	},
	{
		name: "apsp_grid_256_dist2",
		why:  "only workload on EngineDist (2 spawned worker processes): wire encode, socket, wait, decode; Metrics must equal the step engine's",
		setup: func(c *config) (instance, error) {
			return setupSim(c, simSpec{graph: grid(c.sz.gridSmall), engine: distEngine})
		},
	},
	{
		name: "apsp_grid_576_default",
		why:  "no engine option: goroutine-per-node Programs on the default engine, what a caller who picks nothing gets",
		setup: func(c *config) (instance, error) {
			return setupSim(c, simSpec{graph: grid(c.sz.gridMid), engine: defaultEngine})
		},
	},
	{
		name:  "serve_zipf_1024",
		why:   "only workload on internal/serve: closed loop of nproc keep-alive clients over loopback HTTP, zipf(1.2) sources, every 4th query a /route",
		setup: setupServe,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func grid(side int) func(*rand.Rand) *hybrid.Graph {
	return func(*rand.Rand) *hybrid.Graph { return hybrid.GridGraph(side, side) }
}

// engineChoice is how a sim workload selects its round engine.
type engineChoice int

const (
	defaultEngine engineChoice = iota // no WithEngine option at all
	stepEngine
	distEngine
)

// distWorkers is the worker-process count of the EngineDist workload.
const distWorkers = 2

// simConfig is the sim.Config the facade builds from options(): what the
// probes that call sim.RunStep directly run under.
func (e engineChoice) simConfig() sim.Config {
	cfg := sim.Config{Seed: algSeed}
	switch e {
	case stepEngine:
		cfg.Engine = sim.EngineStep
	case distEngine:
		cfg.Engine, cfg.DistWorkers = sim.EngineDist, distWorkers
	}
	return cfg
}

func (e engineChoice) options() []hybrid.Option {
	switch e {
	case stepEngine:
		return []hybrid.Option{hybrid.WithEngine(hybrid.EngineStep)}
	case distEngine:
		return []hybrid.Option{hybrid.WithEngine(hybrid.EngineDist), hybrid.WithWorkers(distWorkers)}
	}
	return nil
}

// simSpec is what distinguishes the six simulator workloads.
type simSpec struct {
	graph  func(rng *rand.Rand) *hybrid.Graph
	engine engineChoice
	kssp   bool // KSSP(KSSPRealMM) from evenly spaced sources; otherwise APSP
	warm   bool // every operation is LoadCache + APSP from a cache the set-up saved
}

// simInstance is a set-up simulator workload.
type simInstance struct {
	c       *config
	spec    simSpec
	g       *hybrid.Graph
	sources []int     // kssp
	want    [][]int64 // APSP: want[u][v]; kssp: want[v][i] for sources[i]

	// Warm workload: the cold run the cache was saved from.
	cacheDir     string
	coldMetrics  hybrid.Metrics
	coldChecksum uint64
	saveMS       float64

	// Dist workload: the same graph and seed on EngineStep.
	stepMetrics hybrid.Metrics
	stepWall    time.Duration

	// first is the Metrics of the first operation; every later one must
	// repeat it exactly.
	first *hybrid.Metrics
}

func setupSim(c *config, spec simSpec) (instance, error) {
	in := &simInstance{c: c, spec: spec}
	in.g = spec.graph(rand.New(rand.NewSource(c.seed)))
	if spec.kssp {
		k := c.sz.ksspSources
		for i := 0; i < k; i++ {
			in.sources = append(in.sources, i*in.g.N()/k)
		}
		in.want = graph.KDistances(in.g, in.sources)
	} else {
		in.want = hybrid.ExactAPSP(in.g)
	}
	if spec.warm {
		dir, err := os.MkdirTemp("", "bench-warm-")
		if err != nil {
			return nil, err
		}
		in.cacheDir = dir
		nw := in.network(nil)
		res, err := nw.APSP()
		if err != nil {
			in.close()
			return nil, fmt.Errorf("cold run: %w", err)
		}
		in.coldMetrics, in.coldChecksum = res.Metrics, checksum(res.Dist)
		start := time.Now()
		if err := nw.SaveCache(); err != nil {
			in.close()
			return nil, err
		}
		in.saveMS = ms(time.Since(start))
	}
	if spec.engine == distEngine {
		start := time.Now()
		res, err := hybrid.New(in.g, hybrid.WithSeed(algSeed), hybrid.WithEngine(hybrid.EngineStep)).APSP()
		if err != nil {
			return nil, fmt.Errorf("step reference run: %w", err)
		}
		in.stepWall, in.stepMetrics = time.Since(start), res.Metrics
	}
	return in, nil
}

func (in *simInstance) close() {
	if in.cacheDir != "" {
		os.RemoveAll(in.cacheDir)
	}
}

// network builds a fresh Network with the workload's options; onRound, if
// non-nil, is installed as the per-round progress hook (traced runs only).
func (in *simInstance) network(onRound func(int), extra ...hybrid.Option) *hybrid.Network {
	opts := append([]hybrid.Option{hybrid.WithSeed(algSeed)}, in.spec.engine.options()...)
	if in.cacheDir != "" {
		opts = append(opts, hybrid.WithCacheDir(in.cacheDir))
	}
	if onRound != nil {
		opts = append(opts, hybrid.WithProgress(onRound))
	}
	return hybrid.New(in.g, append(opts, extra...)...)
}

func (in *simInstance) op(tr *tracer, parent, rep int) opResult {
	r := opResult{attempted: 1}
	var apsp *hybrid.APSPResult
	var ks *hybrid.KSSPResult
	var status hybrid.CacheLoadStatus
	var err error
	r.callSpan = tr.begin(parent, rep, "facade")
	r.cost = measure(func() {
		nw := in.network(tr.rounds(r.callSpan, rep))
		if in.spec.warm {
			if status, err = nw.LoadCache(); err != nil {
				return
			}
		}
		if in.spec.kssp {
			ks, err = nw.KSSP(in.sources, hybrid.KSSPRealMM(0))
		} else {
			apsp, err = nw.APSP()
		}
	})
	tr.end(r.callSpan)
	if err != nil {
		r.fail("facade call: %v", err)
		return r
	}
	if in.spec.kssp {
		r.metrics = ks.Metrics
		r.stretch, r.checksum = in.checkKSSP(&r, ks)
	} else {
		r.metrics = apsp.Metrics
		r.stretch, r.checksum = 1, checksum(apsp.Dist)
		if bad := mismatches(apsp.Dist, in.want); bad > 0 {
			r.fail("%d distance cells differ from sequential ground truth", bad)
		}
	}
	if in.first == nil {
		in.first = &r.metrics
	} else if *in.first != r.metrics {
		r.fail("Metrics changed between repetitions: %+v then %+v", *in.first, r.metrics)
	}
	if in.spec.warm {
		switch {
		case !status.Structural || !status.Seed:
			r.fail("warm load restored %+v, want both cache sections", status)
		case r.metrics.Rounds >= in.coldMetrics.Rounds:
			r.fail("warm run took %d rounds, cold took %d", r.metrics.Rounds, in.coldMetrics.Rounds)
		case r.checksum != in.coldChecksum:
			r.fail("warm distance checksum %016x differs from the cold run's %016x", r.checksum, in.coldChecksum)
		}
	}
	if in.spec.engine == distEngine && r.metrics != in.stepMetrics {
		r.fail("EngineDist Metrics %+v differ from EngineStep's %+v", r.metrics, in.stepMetrics)
	}
	return r
}

// checkKSSP verifies d(v,s) <= estimate <= 3·d(v,s), KSSPRealMM's weighted
// guarantee, for every node and source, and returns the worst ratio seen.
func (in *simInstance) checkKSSP(r *opResult, ks *hybrid.KSSPResult) (stretch float64, sum uint64) {
	h := fnv.New64a()
	stretch = 1
	bad := 0
	for v := range in.want {
		for i, s := range in.sources {
			want, got := in.want[v][i], ks.Dist[v][s]
			hashInt(h, got)
			if got < want || got > 3*want {
				bad++
			} else if want > 0 {
				if q := float64(got) / float64(want); q > stretch {
					stretch = q
				}
			}
		}
	}
	if bad > 0 {
		r.fail("%d k-SSP estimates outside [d, 3d]", bad)
	}
	return stretch, h.Sum64()
}

func mismatches(got, want [][]int64) int {
	if len(got) != len(want) {
		return len(want)
	}
	bad := 0
	for u := range want {
		if len(got[u]) != len(want[u]) {
			bad += len(want[u])
			continue
		}
		for v := range want[u] {
			if got[u][v] != want[u][v] {
				bad++
			}
		}
	}
	return bad
}

func hashInt(h hash.Hash64, x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}

// checksum fingerprints a distance matrix; the cold and the warm grid
// workloads must agree on it.
func checksum(dist [][]int64) uint64 {
	h := fnv.New64a()
	for _, row := range dist {
		for _, d := range row {
			hashInt(h, d)
		}
	}
	return h.Sum64()
}

// cost is what one timed region consumed.
type cost struct {
	wall, cpu time.Duration
	allocMB   float64
	mallocs   uint64
	numGC     uint32
	gcPause   time.Duration
	gcCPU     time.Duration
}

// measure runs f between two readings of the clock, the process's CPU time
// (its waited-for children included, which is where EngineDist's workers
// land) and the allocator's counters.
func measure(f func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUTime(), cpuTime()
	start := time.Now()
	f()
	wall := time.Since(start)
	cpu, gc := cpuTime()-cpu0, gcCPUTime()-gc0
	runtime.ReadMemStats(&m1)
	return cost{
		wall:    wall,
		cpu:     cpu,
		gcCPU:   gc,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs: m1.Mallocs - m0.Mallocs,
		numGC:   m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}

// gcCPUTime is the runtime's estimate of the CPU time spent collecting.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
