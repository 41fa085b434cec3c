// CLI-level tests: run() is driven in-process with captured output, so the
// exit codes and messages of the cancelled-run, warm-start, and
// corrupt-cache paths are pinned without building a binary.
package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dist"
)

// runCLI invokes run with captured stdout/stderr.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

var roundsRe = regexp.MustCompile(`(?m)^rounds=(\d+) `)

func roundsOf(t *testing.T, stdout string) int {
	t.Helper()
	m := roundsRe.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no rounds= line in output:\n%s", stdout)
	}
	r, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatalf("rounds %q: %v", m[1], err)
	}
	return r
}

func TestRunHappyPath(t *testing.T) {
	code, stdout, stderr := runCLI("-graph", "grid", "-n", "49", "-algo", "apsp", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "apsp: 2401/2401 pair distances exact") {
		t.Errorf("missing exactness line:\n%s", stdout)
	}
	roundsOf(t, stdout)
}

// TestRunTimeoutCancels pins the cancelled-run exit path: a run bounded by
// an unmeetable -timeout must exit non-zero with a cancellation message,
// not hang and not report results.
func TestRunTimeoutCancels(t *testing.T) {
	code, stdout, stderr := runCLI("-graph", "grid", "-n", "1024", "-algo", "apsp",
		"-engine", "step", "-timeout", "30ms", "-verify=false")
	if code == 0 {
		t.Fatalf("cancelled run exited 0; stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "run cancelled") || !strings.Contains(stderr, "deadline") {
		t.Errorf("stderr does not report the cancellation:\n%s", stderr)
	}
	if strings.Contains(stdout, "rounds=") {
		t.Errorf("cancelled run printed metrics:\n%s", stdout)
	}
}

// TestRunProgressTicker pins the -progress round ticker: a bounded run must
// emit periodic round lines on stderr.
func TestRunProgressTicker(t *testing.T) {
	code, _, stderr := runCLI("-graph", "grid", "-n", "49", "-algo", "apsp",
		"-progress", "200", "-verify=false")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "round 200\n") {
		t.Errorf("no round ticker on stderr:\n%s", stderr)
	}
}

// TestRunWarmStartCLI runs the same instance twice against one -cache-dir:
// the second run must announce the warm start, report strictly fewer
// rounds, and still verify exactly.
func TestRunWarmStartCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-graph", "grid", "-n", "100", "-algo", "apsp", "-seed", "3", "-cache-dir", dir}

	code, coldOut, coldErr := runCLI(args...)
	if code != 0 {
		t.Fatalf("cold exit %d, stderr:\n%s", code, coldErr)
	}
	if !strings.Contains(coldErr, "saved warm-start cache") {
		t.Errorf("cold run did not save the cache:\n%s", coldErr)
	}

	code, warmOut, warmErr := runCLI(args...)
	if code != 0 {
		t.Fatalf("warm exit %d, stderr:\n%s", code, warmErr)
	}
	if !strings.Contains(warmErr, "warm start: loaded structural+seed sections") {
		t.Errorf("warm run did not load the cache:\n%s", warmErr)
	}
	if !strings.Contains(warmOut, "apsp: 10000/10000 pair distances exact") {
		t.Errorf("warm run not exact:\n%s", warmOut)
	}
	coldRounds, warmRounds := roundsOf(t, coldOut), roundsOf(t, warmOut)
	if warmRounds >= coldRounds {
		t.Errorf("warm run did not reduce rounds: cold %d, warm %d", coldRounds, warmRounds)
	}

	// The run summary reports the cache sections: hit/miss per section and
	// each file's format version and size.
	if !strings.Contains(coldOut, "cache: structural=miss seed=miss") {
		t.Errorf("cold run summary missing section miss report:\n%s", coldOut)
	}
	if !strings.Contains(warmOut, "cache: structural=hit seed=hit") {
		t.Errorf("warm run summary missing section hit report:\n%s", warmOut)
	}
	for _, want := range []string{"cache structural file: warm-", "cache seed file: warm-", "format=v2 size="} {
		if !strings.Contains(warmOut, want) {
			t.Errorf("warm run summary missing %q:\n%s", want, warmOut)
		}
	}
}

// TestRunCrossSeedWarmStartCLI pins the seed-split behavior end to end: a
// run with a new seed against a cache directory populated under another
// seed loads the structural section only, lands strictly between that
// seed's cold and full-warm round counts, and still verifies exactly.
func TestRunCrossSeedWarmStartCLI(t *testing.T) {
	dir := t.TempDir()
	argsFor := func(seed string, cache bool) []string {
		args := []string{"-graph", "grid", "-n", "100", "-algo", "apsp", "-seed", seed}
		if cache {
			args = append(args, "-cache-dir", dir)
		}
		return args
	}

	// Cold baseline for seed 4 without any cache, then populate the cache
	// under seed 3.
	code, coldOut, coldErr := runCLI(argsFor("4", false)...)
	if code != 0 {
		t.Fatalf("cold exit %d, stderr:\n%s", code, coldErr)
	}
	if code, _, stderr := runCLI(argsFor("3", true)...); code != 0 {
		t.Fatalf("populate exit %d, stderr:\n%s", code, stderr)
	}

	code, crossOut, crossErr := runCLI(argsFor("4", true)...)
	if code != 0 {
		t.Fatalf("cross-seed exit %d, stderr:\n%s", code, crossErr)
	}
	if !strings.Contains(crossErr, "warm start: loaded structural section only (cross-seed)") {
		t.Errorf("cross-seed run did not announce the partial warm start:\n%s", crossErr)
	}
	if !strings.Contains(crossOut, "cache: structural=hit seed=miss") {
		t.Errorf("cross-seed summary missing section report:\n%s", crossOut)
	}
	if !strings.Contains(crossOut, "apsp: 10000/10000 pair distances exact") {
		t.Errorf("cross-seed run not exact:\n%s", crossOut)
	}

	// The cross-seed run saved its own seed section: the rerun is fully warm.
	code, warmOut, _ := runCLI(argsFor("4", true)...)
	if code != 0 {
		t.Fatalf("warm exit %d", code)
	}
	coldRounds, crossRounds, warmRounds := roundsOf(t, coldOut), roundsOf(t, crossOut), roundsOf(t, warmOut)
	if !(warmRounds < crossRounds && crossRounds < coldRounds) {
		t.Errorf("cross-seed rounds not strictly between: cold %d, cross-seed %d, warm %d",
			coldRounds, crossRounds, warmRounds)
	}
}

// TestRunCorruptCacheFallsBack corrupts the saved cache file in place: the
// rerun must warn, fall back to a cold start, still succeed, and overwrite
// the bad file with a fresh one that warms the next run.
func TestRunCorruptCacheFallsBack(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-graph", "grid", "-n", "100", "-algo", "apsp", "-seed", "3", "-cache-dir", dir}
	if code, _, stderr := runCLI(args...); code != 0 {
		t.Fatalf("cold exit %d, stderr:\n%s", code, stderr)
	}
	// v2 writes two section files: the seed-specific one and the shared
	// structural one. Corrupt the seed file; the whole set must be
	// rejected (no half-warm state).
	files, err := filepath.Glob(filepath.Join(dir, "*-seed*.hybc"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files: %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("run after corruption exited %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "warning:") || !strings.Contains(stderr, "starting cold") {
		t.Errorf("no rejection warning on stderr:\n%s", stderr)
	}
	if !strings.Contains(stdout, "apsp: 10000/10000 pair distances exact") {
		t.Errorf("cold fallback not exact:\n%s", stdout)
	}
	// The run re-saved a good file set: the next invocation warm-starts
	// again, both sections.
	if _, _, stderr := runCLI(args...); !strings.Contains(stderr, "warm start: loaded structural+seed sections") {
		t.Errorf("cache was not repaired by the fallback run:\n%s", stderr)
	}
}

// TestRunBadFlags pins the error exits for unknown enum-ish flag values;
// what the shared graph and engine flags reject is netflags' table, here
// one row each shows the rejection becomes an exit code.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "torus"},
		{"-algo", "mst"},
		{"-algo", "kssp", "-variant", "cor99"},
		{"-algo", "diameter", "-variant", "cor99"},
		{"-not-a-flag"},
	} {
		if code, _, _ := runCLI(args...); code == 0 {
			t.Errorf("args %v exited 0", args)
		}
	}
	// The removed goroutine-sharded engine is an error by name, not an alias
	// of another engine.
	code, _, stderr := runCLI("-engine", "sharded")
	if code == 0 || !strings.Contains(stderr, `unknown engine "sharded"`) {
		t.Errorf("-engine sharded: exit %d, stderr %q", code, stderr)
	}
}

// TestRunKSSPSourceCount pins -k's range for -algo kssp: a count below 1 or
// above n exits 1 with an error naming -k (not a panic, not repeated
// sources), and k = n draws every node once.
func TestRunKSSPSourceCount(t *testing.T) {
	for _, k := range []string{"-2", "0", "17", "40"} {
		code, _, stderr := runCLI("-graph", "grid", "-n", "16", "-algo", "kssp", "-k", k)
		if code != 1 || !strings.Contains(stderr, "-k "+k) {
			t.Errorf("-k %s on 16 nodes: exit %d, stderr %q; want exit 1 naming -k", k, code, stderr)
		}
	}
	code, stdout, stderr := runCLI("-graph", "grid", "-n", "16", "-algo", "kssp", "-k", "16")
	if code != 0 || !strings.Contains(stdout, "with k=16:") {
		t.Fatalf("-k 16 on 16 nodes: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	sources := drawSources(rand.New(rand.NewSource(1)), 16, 16)
	if slices.Sort(sources); !slices.Equal(sources, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		t.Errorf("k = n drew %v, want every node once", sources)
	}
}

// TestRunDistConnectCLI runs the full CLI in connect mode against
// pre-started in-process listen workers and checks the run verifies
// against ground truth like any other engine.
func TestRunDistConnectCLI(t *testing.T) {
	var addrs []string
	for k := 0; k < 2; k++ {
		lw, err := dist.StartListenWorker("tcp:127.0.0.1:0", k)
		if err != nil {
			t.Fatal(err)
		}
		defer lw.Close()
		go lw.Serve()
		addrs = append(addrs, lw.Addr())
	}
	code, stdout, stderr := runCLI("-graph", "path", "-n", "24", "-algo", "sssp", "-seed", "3",
		"-engine", "dist", "-dist-connect", strings.Join(addrs, ","))
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "24/24 distances exact") {
		t.Errorf("connect-mode sssp not exact:\n%s", stdout)
	}
}

// TestRunTreeGraph smokes the tree generator through the CLI (it feeds the
// randomized harness and is part of the documented -graph values).
func TestRunTreeGraph(t *testing.T) {
	code, stdout, stderr := runCLI("-graph", "tree", "-n", "40", "-algo", "sssp", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "sssp from 0: 40/40 distances exact") {
		t.Errorf("tree sssp not exact:\n%s", stdout)
	}
}

// TestRunSingleNodeDiameter: on one node the true diameter is 0, so the
// verify line has no ratio to print (it used to divide by zero: "ratio NaN").
func TestRunSingleNodeDiameter(t *testing.T) {
	code, stdout, stderr := runCLI("-graph", "grid", "-n", "1", "-algo", "diameter")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "diameter cor52: estimate 0, true 0\n") || strings.Contains(stdout, "ratio") {
		t.Errorf("single-node diameter line:\n%s", stdout)
	}
}

// TestRunDefaultVariant pins -variant's per-algorithm default: with no
// -variant, kssp runs Corollary 4.7 (the one that allows any k) and
// diameter Corollary 5.2.
func TestRunDefaultVariant(t *testing.T) {
	for _, c := range []struct{ algo, want string }{
		{"kssp", "algorithm: Cor4.7(ε=0.5)"},
		{"diameter", "algorithm: Cor5.2(ε=0.5)"},
	} {
		code, stdout, stderr := runCLI("-graph", "grid", "-n", "49", "-algo", c.algo)
		if code != 0 {
			t.Fatalf("-algo %s: exit %d, stderr:\n%s", c.algo, code, stderr)
		}
		if !strings.Contains(stdout, c.want) {
			t.Errorf("-algo %s: missing %q:\n%s", c.algo, c.want, stdout)
		}
	}
}
