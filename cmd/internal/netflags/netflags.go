// Package netflags is the command-line plumbing cmd/hybridsim and
// cmd/hybridserve share: the flags that pick a generated graph, an engine
// and a warm-start cache directory, and their mapping onto a hybrid.Network.
package netflags

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strings"

	hybrid "repro"
)

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Graph       string
	N           int
	Seed        int64
	MaxW        int64
	Engine      string
	Workers     int
	DistConnect string
	CacheDir    string
}

// Register declares the shared flags on fs; defaultN is the command's
// default node count.
func Register(fs *flag.FlagSet, defaultN int) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Graph, "graph", "grid", "graph: grid|path|cycle|tree|sparse|geometric|barbell")
	fs.IntVar(&f.N, "n", defaultN, "number of nodes")
	fs.Int64Var(&f.Seed, "seed", 1, "random seed")
	fs.Int64Var(&f.MaxW, "maxw", 1, "max edge weight (1 = unweighted)")
	fs.StringVar(&f.Engine, "engine", "step", "round engine: step|legacy|dist")
	fs.IntVar(&f.Workers, "workers", 0, "dist engine worker-process count (0 = default)")
	fs.StringVar(&f.DistConnect, "dist-connect", "", "comma-separated pre-started worker addresses for the dist engine to dial, one per shard (e.g. tcp:10.0.0.7:9000,tcp:10.0.0.8:9000)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "directory of the persistent warm-start cache (load before the run, save after)")
	return f
}

// Options returns the options the shared flags select. The dist engine's
// flags are rejected on any other engine rather than silently ignored.
func (f *Flags) Options() ([]hybrid.Option, error) {
	engines := map[string]hybrid.Engine{"step": hybrid.EngineStep, "legacy": hybrid.EngineLegacy, "dist": hybrid.EngineDist}
	eng, ok := engines[f.Engine]
	if !ok {
		return nil, fmt.Errorf("unknown engine %q", f.Engine)
	}
	if (f.Workers > 0 || f.DistConnect != "") && eng != hybrid.EngineDist {
		return nil, fmt.Errorf("-workers and -dist-connect require -engine dist")
	}
	opts := []hybrid.Option{hybrid.WithSeed(f.Seed), hybrid.WithEngine(eng)}
	if f.Workers > 0 {
		opts = append(opts, hybrid.WithWorkers(f.Workers))
	}
	if f.DistConnect != "" {
		opts = append(opts, hybrid.WithDistConnect(strings.Split(f.DistConnect, ",")...))
	}
	if f.CacheDir != "" {
		opts = append(opts, hybrid.WithCacheDir(f.CacheDir))
	}
	return opts, nil
}

// BuildGraph generates the graph -graph, -n and -maxw describe from a
// source seeded with -seed, and returns the source too: a caller that draws
// more from it (hybridsim's kssp sources) continues the same stream. An -n
// below 1, or below what the kind can build, is an error.
func (f *Flags) BuildGraph() (*hybrid.Graph, *rand.Rand, error) {
	if f.N < 1 {
		return nil, nil, fmt.Errorf("-n %d: a graph needs at least 1 node", f.N)
	}
	rng := rand.New(rand.NewSource(f.Seed))
	var g *hybrid.Graph
	switch f.Graph {
	case "grid":
		side := 1
		for side*side < f.N {
			side++
		}
		g = hybrid.GridGraph(side, side)
	case "path":
		g = hybrid.PathGraph(f.N)
	case "cycle":
		g = hybrid.CycleGraph(f.N)
	case "tree":
		g = hybrid.RandomTreeGraph(f.N, rng)
	case "sparse":
		g = hybrid.SparseGraph(f.N, 1.2, rng)
	case "geometric":
		g = hybrid.GeometricGraph(f.N, 0.15, rng)
	case "barbell":
		if f.N < 3 {
			return nil, nil, fmt.Errorf("-n %d: a barbell needs at least 3 nodes", f.N)
		}
		g = hybrid.BarbellGraph(f.N/3, f.N/3)
	default:
		return nil, nil, fmt.Errorf("unknown graph kind %q", f.Graph)
	}
	if f.MaxW > 1 {
		g = hybrid.WithRandomWeights(g, f.MaxW, rng)
	}
	return g, rng, nil
}

// LoadCache restores nw's warm-start cache from -cache-dir (nothing without
// one) and says on stderr what it found; a rejected cache is a warning, and
// the run proceeds cold.
func (f *Flags) LoadCache(nw *hybrid.Network, stderr io.Writer) hybrid.CacheLoadStatus {
	if f.CacheDir == "" {
		return hybrid.CacheLoadStatus{}
	}
	status, err := nw.LoadCache()
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "warning: %v (starting cold)\n", err)
	case status.Seed:
		fmt.Fprintf(stderr, "warm start: loaded structural+seed sections from %s\n", f.CacheDir)
	case status.Structural:
		fmt.Fprintf(stderr, "warm start: loaded structural section only (cross-seed) from %s\n", f.CacheDir)
	}
	return status
}
