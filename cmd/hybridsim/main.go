// Command hybridsim runs one HYBRID-model algorithm on one generated graph
// and prints the result summary and cost metrics — the quickest way to poke
// at the library from a shell.
//
// Usage examples:
//
//	hybridsim -graph grid -n 100 -algo apsp
//	hybridsim -graph path -n 200 -algo sssp -source 0
//	hybridsim -graph sparse -n 144 -algo diameter -variant cor53
//	hybridsim -graph geometric -n 150 -algo kssp -k 5 -variant cor46
//	hybridsim -graph grid -n 1024 -algo apsp -cache-dir .hybcache
//
// With -cache-dir the run warm-starts from (and re-saves) the persistent
// warm-start cache: a second invocation with the same graph, seed, and
// parameters skips routing session construction entirely. A
// corrupt or incompatible cache file is rejected with a warning and the run
// proceeds cold. -timeout bounds the run's wall clock; -progress n prints a
// live round ticker to stderr every n rounds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	hybrid "repro"
	"repro/cmd/internal/netflags"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind flag parsing; factored from main so the
// CLI-level tests can drive it in-process (exit codes, output, cancelled
// runs) without building a binary.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nf := netflags.Register(fs, 100)
	algo := fs.String("algo", "apsp", "algorithm: apsp|apsp-baseline|sssp|kssp|diameter")
	variant := fs.String("variant", "", "variant for kssp (cor46|cor47|cor48|mm; default cor47) / diameter (cor52|cor53|mm; default cor52)")
	source := fs.Int("source", 0, "source node for sssp")
	k := fs.Int("k", 3, "number of sources for kssp")
	eps := fs.Float64("eps", 0.5, "epsilon for approximation variants")
	verify := fs.Bool("verify", true, "check results against sequential ground truth")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = no limit)")
	progress := fs.Int("progress", 0, "print a live round ticker to stderr every n rounds (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *eps <= 0 {
		// The spec constructors default ε themselves, but the mm variants
		// derive η = 1/ε here, so the defaulting must happen first.
		*eps = 0.5
	}

	fatalf := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 1
	}

	opts, err := nf.Options()
	if err != nil {
		return fatalf("%v", err)
	}
	g, rng, err := nf.BuildGraph()
	if err != nil {
		return fatalf("%v", err)
	}
	fmt.Fprintf(stdout, "graph: %s, n=%d, m=%d, hop diameter=%d, engine=%s\n",
		nf.Graph, g.N(), g.M(), hybrid.HopDiameter(g), nf.Engine)

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = append(opts, hybrid.WithContext(ctx))
	}
	if *progress > 0 {
		every := *progress
		opts = append(opts, hybrid.WithProgress(func(round int) {
			if round%every == 0 {
				fmt.Fprintf(stderr, "round %d\n", round)
			}
		}))
	}

	net := hybrid.New(g, opts...)
	cacheStatus := nf.LoadCache(net, stderr)

	check := func(err error) int {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return fatalf("run cancelled: %v", err)
		}
		return fatalf("%v", err)
	}

	switch *algo {
	case "apsp", "apsp-baseline":
		var res *hybrid.APSPResult
		var err error
		if *algo == "apsp" {
			res, err = net.APSP()
		} else {
			res, err = net.APSPBaseline()
		}
		if err != nil {
			return check(err)
		}
		if *verify {
			verifyAPSP(stdout, g, res)
		}
		printMetrics(stdout, res.Metrics)
	case "sssp":
		res, err := net.SSSP(*source)
		if err != nil {
			return check(err)
		}
		if *verify {
			want := hybrid.Dijkstra(g, *source)
			bad := 0
			for v := range res.Dist {
				if res.Dist[v] != want[v] {
					bad++
				}
			}
			fmt.Fprintf(stdout, "sssp from %d: %d/%d distances exact\n", *source, g.N()-bad, g.N())
		}
		printMetrics(stdout, res.Metrics)
	case "kssp":
		if *k < 1 || *k > g.N() {
			return fatalf("-k %d: need 1 <= k <= n = %d sources", *k, g.N())
		}
		sources := drawSources(rng, g.N(), *k)
		specs := map[string]hybrid.KSSPSpec{
			"cor46": hybrid.Cor46(*eps), "cor47": hybrid.Cor47(*eps),
			"cor48": hybrid.Cor48(*eps), "mm": hybrid.KSSPRealMM(1 / *eps),
		}
		if *variant == "" {
			*variant = "cor47" // the k-SSP variant that allows any k
		}
		spec, ok := specs[*variant]
		if !ok {
			return fatalf("unknown kssp variant %q", *variant)
		}
		res, err := net.KSSP(sources, spec)
		if err != nil {
			return check(err)
		}
		fmt.Fprintf(stdout, "algorithm: %s — %s\n", res.Algorithm, res.Guarantee)
		if *verify {
			worst := 1.0
			for _, s := range sources {
				want := hybrid.Dijkstra(g, s)
				for u := 0; u < g.N(); u++ {
					if want[u] > 0 {
						if r := float64(res.Dist[u][s]) / float64(want[u]); r > worst {
							worst = r
						}
					}
				}
			}
			fmt.Fprintf(stdout, "kssp %s with k=%d: worst approximation ratio %.3f\n", *variant, *k, worst)
		}
		printMetrics(stdout, res.Metrics)
	case "diameter":
		specs := map[string]hybrid.DiameterSpec{
			"cor52": hybrid.DiamCor52(*eps), "cor53": hybrid.DiamCor53(*eps), "mm": hybrid.DiamRealMM(1 / *eps),
		}
		if *variant == "" {
			*variant = "cor52"
		}
		spec, ok := specs[*variant]
		if !ok {
			return fatalf("unknown diameter variant %q", *variant)
		}
		res, err := net.Diameter(spec)
		if err != nil {
			return check(err)
		}
		fmt.Fprintf(stdout, "algorithm: %s — %s\n", res.Algorithm, res.Guarantee)
		fmt.Fprintf(stdout, "diameter %s: estimate %d", *variant, res.Estimate)
		if *verify {
			d := hybrid.HopDiameter(g)
			fmt.Fprintf(stdout, ", true %d", d)
			if d > 0 { // one node: D = 0, no ratio
				fmt.Fprintf(stdout, ", ratio %.3f", float64(res.Estimate)/float64(d))
			}
		}
		fmt.Fprintln(stdout)
		printMetrics(stdout, res.Metrics)
	default:
		return fatalf("unknown algorithm %q", *algo)
	}

	if nf.CacheDir != "" {
		if err := net.SaveCache(); err != nil {
			// No summary on a failed save: the on-disk set may be stale or
			// half-written, and a healthy-looking report would lie.
			fmt.Fprintf(stderr, "warning: saving warm-start cache: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "saved warm-start cache: %s + %s\n", net.StructCachePath(), net.CachePath())
			printCacheSummary(stdout, net, cacheStatus)
		}
	}
	return 0
}

// drawSources draws k distinct source nodes out of n, 1 <= k <= n.
func drawSources(rng *rand.Rand, n, k int) []int {
	sources := make([]int, 0, k)
	seen := make([]bool, n)
	for len(sources) < k {
		if s := rng.Intn(n); !seen[s] {
			seen[s] = true
			sources = append(sources, s)
		}
	}
	return sources
}

// printCacheSummary reports the on-disk cache sections in the run summary:
// which sections this run warm-started from (structural = seed-independent
// cluster structures, seed = routing sessions) and each file's
// format version and size after the post-run save.
func printCacheSummary(w io.Writer, net *hybrid.Network, status hybrid.CacheLoadStatus) {
	verdict := func(hit bool) string {
		if hit {
			return "hit"
		}
		return "miss"
	}
	structural, seed := net.CacheFiles()
	fmt.Fprintf(w, "cache: structural=%s seed=%s\n", verdict(status.Structural), verdict(status.Seed))
	for _, f := range []struct {
		name string
		info hybrid.CacheFileInfo
	}{{"structural", structural}, {"seed", seed}} {
		if !f.info.Exists {
			fmt.Fprintf(w, "cache %s file: absent\n", f.name)
			continue
		}
		fmt.Fprintf(w, "cache %s file: %s format=v%d size=%d bytes\n",
			f.name, filepath.Base(f.info.Path), f.info.Version, f.info.Bytes)
	}
}

// verifyAPSP compares res row by row against one Dijkstra per source, so
// it never holds a second n×n matrix (2 GB at n = 16384).
func verifyAPSP(w io.Writer, g *hybrid.Graph, res *hybrid.APSPResult) {
	bad := 0
	for u := 0; u < g.N(); u++ {
		want := hybrid.Dijkstra(g, u)
		for v := 0; v < g.N(); v++ {
			if res.Dist[u][v] != want[v] {
				bad++
			}
		}
	}
	fmt.Fprintf(w, "apsp: %d/%d pair distances exact\n", g.N()*g.N()-bad, g.N()*g.N())
}

func printMetrics(w io.Writer, m hybrid.Metrics) {
	fmt.Fprintf(w, "rounds=%d globalMsgs=%d globalBits=%d localMsgs=%d localBits=%d maxSend=%d maxRecv=%d\n",
		m.Rounds, m.GlobalMsgs, m.GlobalBits, m.LocalMsgs, m.LocalBits, m.MaxGlobalSend, m.MaxGlobalRecv)
}
