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
// it to know when the service is queryable. Its load benchmark is cmd/bench's
// serve_zipf_1024 workload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hybrid "repro"
	"repro/cmd/internal/netflags"
	"repro/internal/serve"
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
	nf := netflags.Register(fs, 1024)
	addr := fs.String("addr", ":8080", "HTTP listen address (use 127.0.0.1:0 for an ephemeral port)")
	maxInflight := fs.Int("max-inflight", 256, "max concurrently served query requests before shedding 429s (0 = unlimited)")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request deadline on query endpoints, 503 past it (0 = none)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "time limit for reading a request's headers — the slowloris guard (0 = none)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "time limit for reading a whole request (0 = none)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "time limit for writing a response; raise it if reloads of very large graphs exceed it (0 = none)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "keep-alive connection idle timeout (0 = none)")
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

	opts, err := nf.Options()
	if err != nil {
		return fatalf("%v", err)
	}
	g, _, err := nf.BuildGraph()
	if err != nil {
		return fatalf("%v", err)
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

	net_ := hybrid.New(g, append(opts, hybrid.WithContext(ctx))...)
	cacheStatus := nf.LoadCache(net_, stderr)

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
			Graph:          nf.Graph,
			Seed:           nf.Seed,
			Engine:         nf.Engine,
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
		nf.Graph, g.N(), g.M(), tables.Info.Rounds, tables.Info.BuildMS, cacheStatus.Structural, cacheStatus.Seed)

	if nf.CacheDir != "" {
		if err := net_.SaveCache(); err != nil {
			fmt.Fprintf(stderr, "warning: saving warm-start cache: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "saved warm-start cache to %s\n", nf.CacheDir)
		}
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
