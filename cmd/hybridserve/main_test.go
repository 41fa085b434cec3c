// CLI-level tests mirroring cmd/hybridsim's testable run() pattern: the
// server is driven in-process on an ephemeral port — start, poll until
// healthy, query, assert warm-start engagement via /stats, and shut down
// cleanly through context cancellation with exit 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// syncBuffer guards a bytes.Buffer: run writes from its own goroutine
// while the test may still be polling.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// server is one in-process hybridserve run.
type server struct {
	addr           string
	cancel         context.CancelFunc
	done           chan int
	stdout, stderr *syncBuffer
}

// startServer launches run() with -addr 127.0.0.1:0 appended and waits
// for the listener address.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{cancel: cancel, done: make(chan int, 1), stdout: &syncBuffer{}, stderr: &syncBuffer{}}
	ready := make(chan string, 1)
	go func() {
		s.done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), s.stdout, s.stderr, ready)
	}()
	select {
	case s.addr = <-ready:
	case code := <-s.done:
		t.Fatalf("run exited %d before listening, stderr:\n%s", code, s.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("listener never came up")
	}
	t.Cleanup(cancel)
	return s
}

// stop cancels the run context and returns the exit code.
func (s *server) stop(t *testing.T) int {
	t.Helper()
	s.cancel()
	select {
	case code := <-s.done:
		return code
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancel")
		return -1
	}
}

// waitHealthy polls /healthz until it answers 200 (the APSP build has
// published the tables).
func (s *server) waitHealthy(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + s.addr + "/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("server never became healthy, stderr:\n%s", s.stderr.String())
}

func (s *server) getJSON(t *testing.T, path string, into any) int {
	t.Helper()
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: body %q: %v", path, body, err)
		}
	}
	return resp.StatusCode
}

// TestRunServeE2EWarmStart is the end-to-end story on a seeded 7×7 grid:
// a cold run serves the known corner-to-corner distance 12, then a second
// run against the same cache directory warm-starts — /stats shows the
// warm seed section engaged and an APSP round count strictly below the
// cold build — and both shut down with exit 0 on context cancel.
func TestRunServeE2EWarmStart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-graph", "grid", "-n", "49", "-seed", "42", "-cache-dir", dir}

	cold := startServer(t, args...)
	cold.waitHealthy(t)

	var d serve.DistanceResponse
	if code := cold.getJSON(t, "/distance?s=0&t=48", &d); code != http.StatusOK {
		t.Fatalf("distance status %d", code)
	}
	if d.Unreachable || d.Distance != 12 {
		t.Errorf("7x7 grid corner distance = %+v, want 12", d)
	}
	var r serve.RouteResponse
	if code := cold.getJSON(t, "/route?s=0&t=48", &r); code != http.StatusOK {
		t.Fatalf("route status %d", code)
	}
	if r.Weight != 12 || r.Hops != 12 || len(r.Path) != 13 || r.Path[0] != 0 || r.Path[12] != 48 {
		t.Errorf("route 0->48 = %+v, want a 12-hop shortest path", r)
	}

	var coldStats serve.StatsResponse
	cold.getJSON(t, "/stats", &coldStats)
	if coldStats.WarmSeed || coldStats.WarmStructural {
		t.Errorf("cold run claims a warm start: %+v", coldStats)
	}
	if coldStats.Rounds == 0 || coldStats.N != 49 {
		t.Errorf("cold stats malformed: %+v", coldStats)
	}
	if code := cold.stop(t); code != 0 {
		t.Fatalf("cold run exited %d, stderr:\n%s", code, cold.stderr.String())
	}
	if !strings.Contains(cold.stderr.String(), "saved warm-start cache") {
		t.Errorf("cold run did not save the cache:\n%s", cold.stderr.String())
	}

	warm := startServer(t, args...)
	warm.waitHealthy(t)
	var warmStats serve.StatsResponse
	warm.getJSON(t, "/stats", &warmStats)
	if !warmStats.WarmSeed || !warmStats.WarmStructural {
		t.Errorf("second run did not warm-start: %+v, stderr:\n%s", warmStats, warm.stderr.String())
	}
	if warmStats.Rounds >= coldStats.Rounds {
		t.Errorf("warm start did not engage: warm %d rounds, cold %d", warmStats.Rounds, coldStats.Rounds)
	}
	var wd serve.DistanceResponse
	warm.getJSON(t, "/distance?s=0&t=48", &wd)
	if wd.Distance != 12 {
		t.Errorf("warm distance %+v", wd)
	}
	if code := warm.stop(t); code != 0 {
		t.Fatalf("warm run exited %d", code)
	}
}

// TestRunServeNotReadyBefore503 pins the starting window: the listener
// answers 503 on /healthz until the build publishes (observable because
// the listener comes up before the APSP rounds run).
func TestRunServeNotReadyBefore503(t *testing.T) {
	s := startServer(t, "-graph", "grid", "-n", "256", "-seed", "1")
	// Immediately after the listener is up the build is still running on
	// a 256-node grid; tolerate the race where it finishes first.
	code := s.getJSON(t, "/healthz", nil)
	if code != http.StatusServiceUnavailable && code != http.StatusOK {
		t.Errorf("/healthz during build: status %d", code)
	}
	s.waitHealthy(t)
	if code := s.stop(t); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

// TestRunServeCancelDuringBuild cancels mid-APSP: the run must abort
// promptly and exit non-zero with a cancellation message, mirroring
// hybridsim's -timeout contract.
func TestRunServeCancelDuringBuild(t *testing.T) {
	s := startServer(t, "-graph", "grid", "-n", "1024", "-seed", "1")
	time.Sleep(50 * time.Millisecond)
	if code := s.stop(t); code == 0 {
		t.Fatal("cancelled build exited 0")
	}
	if !strings.Contains(s.stderr.String(), "build cancelled") {
		t.Errorf("stderr does not report the cancellation:\n%s", s.stderr.String())
	}
}

// TestRunServeBadFlags pins the error exits; what the shared graph and
// engine flags reject is netflags' table, here one row each shows the
// rejection becomes an exit code.
func TestRunServeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "torus"},
		{"-not-a-flag"},
	} {
		var stdout, stderr syncBuffer
		if code := run(context.Background(), args, &stdout, &stderr, nil); code == 0 {
			t.Errorf("args %v exited 0", args)
		}
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		// The removed goroutine-sharded engine is an error by name, not an
		// alias of another engine.
		{[]string{"-engine", "sharded"}, 1, `unknown engine "sharded"`},
		// The load benchmark moved to cmd/bench (serve_zipf_1024).
		{[]string{"-bench"}, 2, "flag provided but not defined: -bench"},
	} {
		var stdout, stderr syncBuffer
		if code := run(context.Background(), c.args, &stdout, &stderr, nil); code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("args %v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, stderr.String(), c.code, c.want)
		}
	}
}

// TestRunServeListenFailure pins the bind-error exit.
func TestRunServeListenFailure(t *testing.T) {
	blocker := startServer(t, "-graph", "path", "-n", "8")
	defer blocker.stop(t)
	var stdout, stderr syncBuffer
	code := run(context.Background(), []string{
		"-graph", "path", "-n", "8", "-addr", blocker.addr,
	}, &stdout, &stderr, nil)
	if code == 0 {
		t.Fatal("double bind exited 0")
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Errorf("stderr does not report the bind failure:\n%s", stderr.String())
	}
}

// TestRunServeReloadTriggers exercises both reload triggers against a live
// in-process server: POST /admin/reload bumps the generation counter, and
// a SIGHUP delivered to our own process drives the same rebuild path. Both
// must leave the server healthy and serving correct distances.
func TestRunServeReloadTriggers(t *testing.T) {
	s := startServer(t, "-graph", "grid", "-n", "25", "-seed", "3")
	s.waitHealthy(t)

	// Trigger 1: the admin endpoint.
	resp, err := http.Post("http://"+s.addr+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr serve.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Generation != 1 {
		t.Fatalf("POST /admin/reload = %d %+v, want 200 generation 1", resp.StatusCode, rr)
	}

	// Trigger 2: SIGHUP to our own process; the run goroutine's signal
	// loop picks it up. Poll /stats until the second reload lands.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var stats serve.StatsResponse
		s.getJSON(t, "/stats", &stats)
		if stats.Reloads >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never landed (reloads=%d), stderr:\n%s", stats.Reloads, s.stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The reloaded generation must keep serving exact distances: corner to
	// corner on a 5×5 grid is 8.
	var dr serve.DistanceResponse
	if code := s.getJSON(t, "/distance?s=0&t=24", &dr); code != http.StatusOK || dr.Distance != 8 {
		t.Fatalf("distance after reloads = %d (%+v), want 200 / 8", code, dr)
	}
	if code := s.stop(t); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
}

// TestRunServeSlowlorisCut pins the slowloris guard: a connection that
// sends a partial header and then stalls is cut by ReadHeaderTimeout
// instead of holding its goroutine forever, and the server keeps serving
// well-behaved clients.
func TestRunServeSlowlorisCut(t *testing.T) {
	s := startServer(t, "-graph", "path", "-n", "8", "-read-header-timeout", "200ms")
	s.waitHealthy(t)

	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: slow\r\nX-Dribble: ")); err != nil {
		t.Fatal(err)
	}
	// Never finish the headers: the server must hang up on us, promptly.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err = conn.Read(buf); err != nil {
			break
		}
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never cut the stalled-header connection")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("stalled connection survived %v, want a cut near the 200ms header timeout", elapsed)
	}

	if code := s.getJSON(t, "/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz after slowloris cut: status %d", code)
	}
	if code := s.stop(t); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

// TestRunServeSIGTERMMidTraffic replicates main()'s signal wiring and
// delivers a real SIGTERM to our own process while query traffic is
// flowing: the drain must complete and the run exit 0.
func TestRunServeSIGTERMMidTraffic(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-graph", "grid", "-n", "49", "-seed", "42", "-addr", "127.0.0.1:0"},
			stdout, stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("run exited %d before listening, stderr:\n%s", code, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("listener never came up")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never healthy, stderr:\n%s", stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	var served atomic.Int64
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + "/distance?s=0&t=48")
				if err != nil {
					continue // refused during/after drain is expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
				}
			}
		}()
	}
	// Let real traffic land before the signal.
	for served.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-done:
	case <-time.After(30 * time.Second):
		close(stopTraffic)
		t.Fatal("run did not exit after SIGTERM")
	}
	close(stopTraffic)
	wg.Wait()
	if code != 0 {
		t.Fatalf("SIGTERM mid-traffic exited %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("no shutdown message:\n%s", stderr.String())
	}
	if served.Load() == 0 {
		t.Error("no traffic was served before the signal")
	}
}
