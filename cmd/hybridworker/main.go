// hybridworker runs one resident distributed-engine worker (see
// internal/dist): it binds a socket, prints the dialable address as
// "HYBRID_DIST_LISTENING <addr>" on stdout, and accepts coordinators one
// after another until killed. This is what runs on remote machines, with
// the coordinator started later under WithDistConnect / -dist-connect
// pointing at it. -shard is optional: an unpinned worker serves whichever
// shard slot the coordinator dialed it for.
//
// A single-box EngineDist run does not need this binary — a coordinator
// without -dist-connect re-execs itself as its workers.
//
//	hybridworker -listen tcp::9000
//	hybridworker -listen tcp:10.0.0.7:9000 -shard 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dist"
	"repro/internal/dist/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "listen spec with transport prefix (tcp::9000, tcp:host:port, unix:/path)")
	shard := fs.Int("shard", wire.AnyShard, "shard id this worker is pinned to (default: whichever the coordinator dials it for)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listen == "" || *shard < wire.AnyShard {
		fmt.Fprintln(stderr, "hybridworker: -listen is required, and -shard must not be negative")
		fs.Usage()
		return 2
	}
	lw, err := dist.StartListenWorker(*listen, *shard)
	if err != nil {
		fmt.Fprintf(stderr, "hybridworker: %v\n", err)
		return 1
	}
	// A resident listener is what runs on remote machines, so it gets the
	// daemon contract: SIGTERM/SIGINT close the listener and Serve returns
	// nil — exit 0, not a kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	go func() {
		if sig, ok := <-sigCh; ok {
			fmt.Fprintf(stderr, "hybridworker: %v: shutting down\n", sig)
			lw.Close()
		}
	}()
	fmt.Fprintln(stdout, dist.ListeningPrefix+lw.Addr())
	if err := lw.Serve(); err != nil {
		fmt.Fprintf(stderr, "hybridworker: %v\n", err)
		return 1
	}
	return 0
}
