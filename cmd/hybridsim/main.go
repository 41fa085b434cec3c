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
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"

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
	verify := fs.Bool("verify", true, "certify apsp/sssp distances exact; check kssp/diameter estimates against sequential ground truth")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = no limit)")
	progress := fs.Int("progress", 0, "print a live round ticker to stderr every n rounds (0 = off)")
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
	switch {
	case math.IsNaN(*eps) || math.IsInf(*eps, 0):
		return fatalf("-eps %g: need a finite epsilon", *eps)
	case *eps <= 0:
		// The spec constructors default ε themselves, but the mm variants
		// derive η = 1/ε here, so the defaulting must happen first.
		*eps = 0.5
	case math.IsInf(1 / *eps, 0):
		// A positive ε below 1/MaxFloat64 passes the checks above, and its
		// η = +Inf would be defaulted by the spec constructors.
		return fatalf("-eps %g: 1/ε overflows; need a larger epsilon", *eps)
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
			for s, row := range res.Dist {
				if err := hybrid.Certify(g, s, row); err != nil {
					return fatalf("apsp: %v", err)
				}
			}
			fmt.Fprintf(stdout, "apsp: %d/%d pair distances exact\n", g.N()*g.N(), g.N()*g.N())
		}
		printMetrics(stdout, res.Metrics)
	case "sssp":
		res, err := net.SSSP(*source)
		if err != nil {
			return check(err)
		}
		if *verify {
			if err := hybrid.Certify(g, *source, res.Dist); err != nil {
				return fatalf("sssp: %v", err)
			}
			fmt.Fprintf(stdout, "sssp from %d: %d/%d distances exact\n", *source, g.N(), g.N())
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
			worst, err := verifyKSSP(g, sources, res.Dist)
			fmt.Fprintf(stdout, "kssp %s with k=%d: worst approximation ratio %.3f\n", *variant, *k, worst)
			if err != nil {
				return fatalf("kssp %s: %v", *variant, err)
			}
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
			err = verifyDiameter(res.Estimate, d)
		}
		fmt.Fprintln(stdout)
		if err != nil {
			return fatalf("diameter %s: %v", *variant, err)
		}
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

// verifyKSSP compares every estimate dist[u][s] with Dijkstra from s. It
// returns the worst ratio d~(u,s)/d(u,s), and an error when any estimate
// lies below d(u,s): every k-SSP guarantee is an upper factor over the
// truth, so such an estimate is wrong however good the worst ratio looks.
func verifyKSSP(g *hybrid.Graph, sources []int, dist []map[int]int64) (float64, error) {
	worst, low, first := 1.0, 0, ""
	for _, s := range sources {
		want := hybrid.Dijkstra(g, s)
		for u, d := range want {
			got := dist[u][s]
			if got < d {
				if low == 0 {
					first = fmt.Sprintf("d~(%d,%d) = %d < d = %d", u, s, got, d)
				}
				low++
			}
			if d > 0 {
				worst = max(worst, float64(got)/float64(d))
			}
		}
	}
	if low > 0 {
		return worst, fmt.Errorf("%d/%d estimates below the true distance, first %s", low, len(sources)*g.N(), first)
	}
	return worst, nil
}

// verifyDiameter returns an error when the estimate lies below the true
// diameter d, which every diameter guarantee forbids.
func verifyDiameter(est, d int64) error {
	if est < d {
		return fmt.Errorf("estimate %d below the true diameter %d", est, d)
	}
	return nil
}

// printMetrics prints the run's metrics line and, on a line of its own, the
// process's peak resident set size so far (getrusage's ru_maxrss, in KiB on
// Linux).
func printMetrics(w io.Writer, m hybrid.Metrics) {
	fmt.Fprintf(w, "rounds=%d globalMsgs=%d globalBits=%d localMsgs=%d localBits=%d maxSend=%d maxRecv=%d\n",
		m.Rounds, m.GlobalMsgs, m.GlobalBits, m.LocalMsgs, m.LocalBits, m.MaxGlobalSend, m.MaxGlobalRecv)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		fmt.Fprintf(w, "peak RSS: %.1f MB\n", float64(ru.Maxrss)/1024)
	}
}
