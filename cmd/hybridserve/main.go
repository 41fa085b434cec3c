// Command hybridserve is the resident query server: it loads a generated
// graph (same flags as hybridsim), warm-starts from the persistent v2
// snapshot cache when one is available, runs APSP once on the step
// engine, then keeps the distance and next-hop tables in memory behind an
// HTTP/JSON API — the paper's "efficient IP-routing" application as a
// long-lived service instead of a one-shot batch run.
//
//	hybridserve -graph grid -n 1024 -cache-dir .hybcache -addr :8080
//	curl 'localhost:8080/distance?s=0&t=1023'
//	curl 'localhost:8080/route?s=0&t=1023'
//	curl 'localhost:8080/stats'
//
// The listener starts before the APSP build, so /healthz answers 503
// ("starting") until the tables are published and 200 afterwards — poll
// it to know when the service is queryable. With -bench the program
// instead replays a deterministic zipfian query stream against itself at
// the -bench-levels concurrency levels, writes the latency/throughput
// report to -bench-out (BENCH_serve.json), and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	hybrid "repro"
	"repro/internal/serve"
	"repro/internal/serve/replay"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole program behind flag parsing; factored from main so the
// CLI-level tests can drive it in-process. ready, when non-nil, receives
// the bound listen address once the HTTP listener is accepting (the e2e
// test uses it with -addr 127.0.0.1:0). Cancelling ctx shuts the server
// down gracefully; a clean shutdown exits 0.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("hybridserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphKind := fs.String("graph", "grid", "graph: grid|path|cycle|tree|sparse|geometric|barbell")
	n := fs.Int("n", 1024, "number of nodes")
	seed := fs.Int64("seed", 1, "random seed")
	maxW := fs.Int64("maxw", 1, "max edge weight (1 = unweighted)")
	engine := fs.String("engine", "step", "round engine: step|legacy|dist")
	workers := fs.Int("workers", 0, "dist engine worker-process count (0 = default)")
	distConnect := fs.String("dist-connect", "", "comma-separated pre-started worker addresses for the dist engine (connect mode)")
	distWindow := fs.Int("dist-window", 0, "dist engine round-pipelining window (0 = lockstep)")
	cacheDir := fs.String("cache-dir", "", "warm-start cache directory (load before the build, save after)")
	addr := fs.String("addr", ":8080", "HTTP listen address (use 127.0.0.1:0 for an ephemeral port)")
	maxInflight := fs.Int("max-inflight", 256, "max concurrently served query requests before shedding 429s (0 = unlimited)")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request deadline on query endpoints, 503 past it (0 = none)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "time limit for reading a request's headers — the slowloris guard (0 = none)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "time limit for reading a whole request (0 = none)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "time limit for writing a response; raise it if reloads of very large graphs exceed it (0 = none)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "keep-alive connection idle timeout (0 = none)")
	bench := fs.Bool("bench", false, "replay a query load against the server, write the report, and exit")
	benchQueries := fs.Int("bench-queries", 40000, "queries replayed at EACH concurrency level")
	benchLevels := fs.String("bench-levels", "1,4,16", "comma-separated concurrency levels to sweep")
	benchOut := fs.String("bench-out", "BENCH_serve.json", "benchmark report output path")
	zipfS := fs.Float64("zipf-s", 1.2, "zipf skew of the replayed source distribution (> 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fatalf := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 1
	}

	var eng hybrid.Engine
	switch *engine {
	case "step":
		eng = hybrid.EngineStep
	case "legacy":
		eng = hybrid.EngineLegacy
	case "dist":
		eng = hybrid.EngineDist
	default:
		return fatalf("unknown engine %q", *engine)
	}
	if (*distConnect != "" || *distWindow > 0 || *workers > 0) && eng != hybrid.EngineDist {
		return fatalf("-workers, -dist-connect and -dist-window require -engine dist")
	}

	rng := rand.New(rand.NewSource(*seed))
	var g *hybrid.Graph
	switch *graphKind {
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		g = hybrid.GridGraph(side, side)
	case "path":
		g = hybrid.PathGraph(*n)
	case "cycle":
		g = hybrid.CycleGraph(*n)
	case "tree":
		g = hybrid.RandomTreeGraph(*n, rng)
	case "sparse":
		g = hybrid.SparseGraph(*n, 1.2, rng)
	case "geometric":
		g = hybrid.GeometricGraph(*n, 0.15, rng)
	case "barbell":
		g = hybrid.BarbellGraph(*n/3, *n/3)
	default:
		return fatalf("unknown graph kind %q", *graphKind)
	}
	if *maxW > 1 {
		g = hybrid.WithRandomWeights(g, *maxW, rng)
	}

	var levels []int
	for _, part := range strings.Split(*benchLevels, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c <= 0 {
			return fatalf("bad -bench-levels entry %q", part)
		}
		levels = append(levels, c)
	}

	// Accept connections before computing: /healthz reports "starting"
	// until the tables are published, so clients can poll for readiness
	// while the HYBRID rounds run.
	srv := serve.New(nil)
	srv.SetMaxInflight(*maxInflight)
	srv.SetRequestTimeout(*requestTimeout)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatalf("listen %s: %v", *addr, err)
	}
	// Every connection-level timeout is set: without them one stalled or
	// malicious client (slowloris: headers fed a byte at a time) holds a
	// connection and its goroutine forever.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
		<-serveErr // always http.ErrServerClosed after Shutdown
	}

	opts := []hybrid.Option{hybrid.WithSeed(*seed), hybrid.WithEngine(eng), hybrid.WithContext(ctx)}
	if *workers > 0 {
		opts = append(opts, hybrid.WithWorkers(*workers))
	}
	if *distConnect != "" {
		opts = append(opts, hybrid.WithDistConnect(strings.Split(*distConnect, ",")...))
	}
	if *distWindow > 0 {
		opts = append(opts, hybrid.WithDistWindow(*distWindow))
	}
	if *cacheDir != "" {
		opts = append(opts, hybrid.WithCacheDir(*cacheDir))
	}
	net_ := hybrid.New(g, opts...)
	var cacheStatus hybrid.CacheLoadStatus
	if *cacheDir != "" {
		status, err := net_.LoadCache()
		cacheStatus = status
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "warning: %v (building cold)\n", err)
		case status.Seed:
			fmt.Fprintf(stderr, "warm start: loaded structural+seed sections from %s\n", *cacheDir)
		case status.Structural:
			fmt.Fprintf(stderr, "warm start: loaded structural section only (cross-seed) from %s\n", *cacheDir)
		}
	}

	// build runs one full APSP + table derivation under the same graph and
	// engine configuration; the initial publish and every reload (SIGHUP or
	// POST /admin/reload) go through this exact closure.
	build := func() (*serve.Tables, error) {
		buildStart := time.Now()
		res, err := net_.APSP()
		if err != nil {
			return nil, err
		}
		next := res.NextHops(g)
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1000
		return serve.NewTables(g, res.Dist, next, serve.BuildInfo{
			Graph:          *graphKind,
			Seed:           *seed,
			Engine:         *engine,
			Rounds:         res.Metrics.Rounds,
			WarmStructural: cacheStatus.Structural,
			WarmSeed:       cacheStatus.Seed,
			BuildMS:        buildMS,
		})
	}

	tables, err := build()
	if err != nil {
		shutdown()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fatalf("build cancelled: %v", err)
		}
		return fatalf("apsp: %v", err)
	}
	srv.Publish(tables)
	srv.SetRebuild(build)
	fmt.Fprintf(stdout, "serving %s n=%d m=%d: apsp built in %d rounds (%.0f ms), warm structural=%v seed=%v\n",
		*graphKind, g.N(), g.M(), tables.Info.Rounds, tables.Info.BuildMS, cacheStatus.Structural, cacheStatus.Seed)

	if *cacheDir != "" {
		if err := net_.SaveCache(); err != nil {
			fmt.Fprintf(stderr, "warning: saving warm-start cache: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "saved warm-start cache to %s\n", *cacheDir)
		}
	}

	if *bench {
		code := runBench(stdout, stderr, tables, "http://"+ln.Addr().String(), replay.Config{
			N:       g.N(),
			Queries: *benchQueries,
			Levels:  levels,
			Seed:    *seed,
			ZipfS:   *zipfS,
			// One route walk per four lookups: routes dominate response
			// size, lookups dominate count — roughly an IP control/data
			// plane mix.
			RouteEvery: 4,
		}, *benchOut)
		shutdown()
		return code
	}

	// SIGHUP is the conventional daemon reload trigger; it shares the
	// rebuild path with POST /admin/reload, so both swap generations
	// atomically while queries keep flowing from the old tables.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintf(stderr, "shutting down\n")
			shutdown()
			return 0
		case <-hup:
			fmt.Fprintf(stderr, "SIGHUP: rebuilding tables\n")
			if t, err := srv.Reload(); err != nil {
				fmt.Fprintf(stderr, "warning: reload failed: %v (keeping current tables)\n", err)
			} else {
				fmt.Fprintf(stderr, "reload %d complete: %d rounds (%.0f ms)\n",
					srv.Reloads(), t.Info.Rounds, t.Info.BuildMS)
			}
		}
	}
}

// runBench replays the configured load against baseURL and writes the
// report JSON to outPath.
func runBench(stdout, stderr io.Writer, tables *serve.Tables, baseURL string, cfg replay.Config, outPath string) int {
	cfg.BaseURL = baseURL
	results, err := replay.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "replay: %v\n", err)
		return 1
	}
	rep := replay.Report{
		Graph:          tables.Info.Graph,
		N:              tables.Info.N,
		Seed:           tables.Info.Seed,
		Engine:         tables.Info.Engine,
		WarmStructural: tables.Info.WarmStructural,
		WarmSeed:       tables.Info.WarmSeed,
		APSPRounds:     tables.Info.Rounds,
		BuildMS:        tables.Info.BuildMS,
		ReplaySeed:     cfg.Seed,
		ZipfS:          cfg.ZipfS,
		TotalQueries:   cfg.Queries * len(cfg.Levels),
		Levels:         results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "marshal report: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "write report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s", data)
	for _, lr := range results {
		fmt.Fprintf(stderr, "bench c=%d: %d queries in %.0f ms (%.0f qps), p50=%.0fµs p95=%.0fµs p99=%.0fµs\n",
			lr.Concurrency, lr.Queries, lr.WallMS, lr.QPS, lr.P50us, lr.P95us, lr.P99us)
	}
	return 0
}
