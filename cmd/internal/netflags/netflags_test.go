package netflags

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	hybrid "repro"
	"repro/internal/dist"
)

// TestFlags is the one table over what the shared flags select and reject;
// cmd/hybridsim and cmd/hybridserve only check that these errors reach
// their exit codes.
func TestFlags(t *testing.T) {
	// Three workers, one more than the default count: a run over them works
	// only if the worker count follows the address count.
	var addrs []string
	for k := 0; k < 3; k++ {
		lw, err := dist.StartListenWorker("tcp:127.0.0.1:0", k)
		if err != nil {
			t.Fatal(err)
		}
		defer lw.Close()
		go lw.Serve()
		addrs = append(addrs, lw.Addr())
	}
	const needsDist = "-workers and -dist-connect require -engine dist"
	for _, c := range []struct {
		name    string
		args    []string
		wantErr string
		nodes   int
	}{
		{"defaults", nil, "", 16},
		{"node count and weights", []string{"-graph", "cycle", "-n", "9", "-maxw", "5"}, "", 9},
		{"unknown engine", []string{"-engine", "warp"}, `unknown engine "warp"`, 0},
		{"unknown graph", []string{"-graph", "torus"}, `unknown graph kind "torus"`, 0},
		{"-workers on the default engine", []string{"-workers", "4"}, needsDist, 0},
		{"-dist-connect on another engine", []string{"-engine", "legacy", "-dist-connect", "tcp:127.0.0.1:1"}, needsDist, 0},
		{"address count sets the worker count", []string{"-engine", "dist", "-graph", "path", "-n", "12",
			"-dist-connect", strings.Join(addrs, ",")}, "", 12},
		{"address count overrides -workers", []string{"-engine", "dist", "-graph", "path", "-n", "12", "-workers", "2",
			"-dist-connect", strings.Join(addrs, ",")}, "", 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := Register(fs, 16)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			g, _, err := f.BuildGraph()
			var opts []hybrid.Option
			if err == nil {
				opts, err = f.Options()
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := hybrid.New(g, opts...).SSSP(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Dist) != c.nodes {
				t.Fatalf("ran on %d nodes, want %d", len(res.Dist), c.nodes)
			}
		})
	}
}

// TestBuildGraphSmallN runs every graph kind at the smallest node counts:
// each must return a non-empty graph or an error naming -n, never panic,
// and n < 1 is an error for every kind.
func TestBuildGraphSmallN(t *testing.T) {
	for _, kind := range []string{"grid", "path", "cycle", "tree", "sparse", "geometric", "barbell"} {
		for _, n := range []int{-3, 0, 1, 2, 3} {
			t.Run(fmt.Sprintf("%s n=%d", kind, n), func(t *testing.T) {
				f := &Flags{Graph: kind, N: n, Seed: 1, MaxW: 3}
				g, _, err := f.BuildGraph()
				switch {
				case n < 1 && err == nil:
					t.Fatalf("built a %d-node graph for -n %d", g.N(), n)
				case err == nil && g.N() < 1:
					t.Fatalf("built an empty graph for -n %d", n)
				case err != nil && !strings.Contains(err.Error(), "-n"):
					t.Fatalf("error %q does not name -n", err)
				}
			})
		}
	}
}
