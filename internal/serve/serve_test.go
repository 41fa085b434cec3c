// Handler-level tests of the serving layer: every endpoint's happy path
// and error shape over httptest, with route responses verified
// edge-by-edge against the graph's adjacency, plus the immutable-publish /
// atomic-swap consistency contract under a concurrent reload (run under
// -race in CI).
package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hybrid "repro"
	"repro/internal/chaos"
	"repro/internal/serve"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildTables computes exact APSP + next hops for g sequentially and
// wraps them as a published generation.
func buildTables(t *testing.T, g *hybrid.Graph, info serve.BuildInfo) *serve.Tables {
	t.Helper()
	dist := hybrid.ExactAPSP(g)
	tb, err := serve.NewTables(g, dist, hybrid.NextHops(g, dist), info)
	if err != nil {
		t.Fatalf("NewTables: %v", err)
	}
	return tb
}

func getJSON(t *testing.T, url string, into any) (status int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type %q, want application/json", url, ct)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: body %q does not parse: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// TestServeDistanceHappy pins /distance on a weighted path where every
// pairwise distance is known in closed form.
func TestServeDistanceHappy(t *testing.T) {
	g := hybrid.NewGraph(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 5)
	ts := httptest.NewServer(serve.New(buildTables(t, g, serve.BuildInfo{})).Handler())
	defer ts.Close()

	want := map[[2]int]int64{{0, 1}: 2, {0, 2}: 5, {0, 3}: 10, {1, 3}: 8, {2, 2}: 0, {3, 0}: 10}
	for pair, d := range want {
		var resp serve.DistanceResponse
		status := getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, pair[0], pair[1]), &resp)
		if status != http.StatusOK {
			t.Errorf("distance %v: status %d", pair, status)
		}
		if resp.Unreachable || resp.Distance != d || resp.S != pair[0] || resp.T != pair[1] {
			t.Errorf("distance %v = %+v, want %d", pair, resp, d)
		}
	}
}

// TestServeRouteVerified checks every /route response on a weighted grid
// edge-by-edge against Graph.Neighbors: consecutive path nodes must be
// adjacent, the summed edge weights must equal the response weight, and
// that weight must equal Dist[s][t].
func TestServeRouteVerified(t *testing.T) {
	g := hybrid.GridGraph(4, 4)
	g = hybrid.WithRandomWeights(g, 7, newRand(11))
	dist := hybrid.ExactAPSP(g)
	tb, err := serve.NewTables(g, dist, hybrid.NextHops(g, dist), serve.BuildInfo{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(tb).Handler())
	defer ts.Close()

	for s := 0; s < g.N(); s++ {
		for to := 0; to < g.N(); to++ {
			var resp serve.RouteResponse
			status := getJSON(t, fmt.Sprintf("%s/route?s=%d&t=%d", ts.URL, s, to), &resp)
			if status != http.StatusOK {
				t.Fatalf("route %d->%d: status %d (%+v)", s, to, status, resp)
			}
			if resp.Unreachable {
				t.Fatalf("route %d->%d reported unreachable on a connected grid", s, to)
			}
			if len(resp.Path) == 0 || resp.Path[0] != s || resp.Path[len(resp.Path)-1] != to {
				t.Fatalf("route %d->%d path %v does not span the pair", s, to, resp.Path)
			}
			if resp.Hops != len(resp.Path)-1 {
				t.Errorf("route %d->%d: hops %d for path %v", s, to, resp.Hops, resp.Path)
			}
			var total int64
			for i := 1; i < len(resp.Path); i++ {
				u, v := resp.Path[i-1], resp.Path[i]
				found := false
				for _, nb := range g.Neighbors(u) {
					if nb.To == v {
						total += nb.W
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("route %d->%d: step %d-%d is not an edge", s, to, u, v)
				}
			}
			if total != resp.Weight || resp.Weight != dist[s][to] {
				t.Errorf("route %d->%d: walked weight %d, response %d, dist %d",
					s, to, total, resp.Weight, dist[s][to])
			}
		}
	}
}

// TestServeBadRequests pins the 400 shape: missing, non-integer, and
// out-of-range s/t all answer 400 with a JSON error body.
func TestServeBadRequests(t *testing.T) {
	g := hybrid.PathGraph(5)
	srv := serve.New(buildTables(t, g, serve.BuildInfo{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{
		"s=0", "t=0", "", "s=0&t=abc", "s=x&t=1", "s=-1&t=0", "s=0&t=5", "s=99&t=0",
	} {
		for _, endpoint := range []string{"/distance", "/route"} {
			var body struct {
				Error string `json:"error"`
			}
			status := getJSON(t, ts.URL+endpoint+"?"+q, &body)
			if status != http.StatusBadRequest {
				t.Errorf("%s?%s: status %d, want 400", endpoint, q, status)
			}
			if body.Error == "" {
				t.Errorf("%s?%s: no error field in body", endpoint, q)
			}
		}
	}

	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.BadRequests == 0 {
		t.Errorf("bad requests not counted: %+v", stats)
	}
}

// TestServeUnreachable pins the explicit unreachable shape on a
// disconnected graph: 200 with "unreachable": true, never a 500.
func TestServeUnreachable(t *testing.T) {
	g := hybrid.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	ts := httptest.NewServer(serve.New(buildTables(t, g, serve.BuildInfo{})).Handler())
	defer ts.Close()

	var d serve.DistanceResponse
	if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &d); status != http.StatusOK {
		t.Errorf("unreachable distance: status %d", status)
	}
	if !d.Unreachable {
		t.Errorf("distance across components = %+v, want unreachable", d)
	}
	var r serve.RouteResponse
	if status := getJSON(t, ts.URL+"/route?s=0&t=2", &r); status != http.StatusOK {
		t.Errorf("unreachable route: status %d", status)
	}
	if !r.Unreachable || len(r.Path) != 0 {
		t.Errorf("route across components = %+v, want unreachable with no path", r)
	}

	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Unreachable != 2 {
		t.Errorf("unreachable counter %d, want 2", stats.Unreachable)
	}
}

// TestServeHealthzLifecycle pins the not-ready state: before the first
// Publish, /healthz and the query endpoints answer 503; after it, 200.
func TestServeHealthzLifecycle(t *testing.T) {
	srv := serve.New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/distance?s=0&t=1", "/route?s=0&t=1"} {
		if status := getJSON(t, ts.URL+path, nil); status != http.StatusServiceUnavailable {
			t.Errorf("%s before publish: status %d, want 503", path, status)
		}
	}
	// /stats stays 200 while starting (zero BuildInfo) so dashboards can
	// watch the counters during a long build.
	if status := getJSON(t, ts.URL+"/stats", nil); status != http.StatusOK {
		t.Errorf("/stats before publish: status %d, want 200", status)
	}

	srv.Publish(buildTables(t, hybrid.PathGraph(3), serve.BuildInfo{}))
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("/healthz after publish: status %d", status)
	}
	var d serve.DistanceResponse
	if status := getJSON(t, ts.URL+"/distance?s=0&t=2", &d); status != http.StatusOK || d.Distance != 2 {
		t.Errorf("query after publish: status %d resp %+v", status, d)
	}
}

// TestServeStatsCounters pins the per-endpoint counters and the BuildInfo
// passthrough.
func TestServeStatsCounters(t *testing.T) {
	g := hybrid.PathGraph(6)
	info := serve.BuildInfo{Graph: "path", Seed: 9, Engine: "step", Rounds: 1234, WarmSeed: true, BuildMS: 1.5}
	ts := httptest.NewServer(serve.New(buildTables(t, g, info)).Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/distance?s=0&t=5", nil)
	}
	getJSON(t, ts.URL+"/route?s=0&t=5", nil)
	getJSON(t, ts.URL+"/distance?s=0&t=99", nil) // bad request

	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.DistanceQueries != 3 || stats.RouteQueries != 1 || stats.BadRequests != 1 {
		t.Errorf("counters %+v", stats)
	}
	if stats.Graph != "path" || stats.N != 6 || stats.Rounds != 1234 || !stats.WarmSeed || stats.WarmStructural {
		t.Errorf("build info not served: %+v", stats)
	}
	if stats.UptimeMS < 0 {
		t.Errorf("uptime %v", stats.UptimeMS)
	}
}

// TestServeNewTablesRejectsMalformed pins the publish-time validation.
func TestServeNewTablesRejectsMalformed(t *testing.T) {
	g := hybrid.PathGraph(3)
	dist := hybrid.ExactAPSP(g)
	next := hybrid.NextHops(g, dist)
	if _, err := serve.NewTables(g, dist[:2], next, serve.BuildInfo{}); err == nil {
		t.Error("short dist accepted")
	}
	if _, err := serve.NewTables(g, [][]int64{{0}, {0}, {0}}, next, serve.BuildInfo{}); err == nil {
		t.Error("ragged dist accepted")
	}
	inexact := [][]int64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}
	inexact[2][0] = 3
	if _, err := serve.NewTables(g, inexact, next, serve.BuildInfo{}); err == nil || !strings.Contains(err.Error(), "certify source 2") {
		t.Errorf("non-exact dist: err %v, want a certificate failure for source 2", err)
	}
}

// TestServeNeverServesCorruptedRebuild: a rebuild whose distances are
// wrong in one cell fails in NewTables, so Reload fails naming the broken
// rule, /healthz reports degraded, and /distance keeps answering from the
// last good tables.
func TestServeNeverServesCorruptedRebuild(t *testing.T) {
	g := lineGraph() // 0 -2- 1 -3- 2 -5- 3
	for _, c := range []struct {
		name  string
		value int64 // d(0,3) is 10
		rule  string
	}{
		{"cell +1", 11, "node 3: edge to 2 relaxes it"},
		{"cell -1", 9, "node 3: no tight neighbour"},
		{"Inf in a reachable cell", hybrid.Inf, "node 3: edge to 2 relaxes it"},
	} {
		srv := serve.New(buildTables(t, g, serve.BuildInfo{Rounds: 1}))
		srv.SetRebuild(func() (*serve.Tables, error) {
			dist := hybrid.ExactAPSP(g)
			next := hybrid.NextHops(g, dist)
			dist[0][3] = c.value
			return serve.NewTables(g, dist, next, serve.BuildInfo{Rounds: 2})
		})
		ts := httptest.NewServer(srv.Handler())
		if _, err := srv.Reload(); err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("%s: Reload error %v, want one naming %q", c.name, err, c.rule)
		}
		var health map[string]string
		if getJSON(t, ts.URL+"/healthz", &health); health["status"] != "degraded" || !strings.Contains(health["error"], c.rule) {
			t.Errorf("%s: /healthz %+v, want degraded naming %q", c.name, health, c.rule)
		}
		var dist serve.DistanceResponse
		if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &dist); status != http.StatusOK || dist.Distance != 10 {
			t.Errorf("%s: /distance 0->3: status %d %+v, want 10 from the last good tables", c.name, status, dist)
		}
		var stats serve.StatsResponse
		if getJSON(t, ts.URL+"/stats", &stats); stats.Rounds != 1 || stats.Reloads != 0 {
			t.Errorf("%s: stats %+v, want the first generation still published", c.name, stats)
		}
		ts.Close()
	}
}

// TestReloadRaceConsistency is the atomic-swap contract under fire: N
// goroutines hammer /distance and /route while the publisher swaps
// between two complete generations (weight-1 and weight-5 copies of one
// grid). Every response must be internally consistent AND match exactly
// one of the two generations — a torn read (weight from one, path from
// the other) fails loudly. CI runs this under -race.
func TestReloadRaceConsistency(t *testing.T) {
	base := hybrid.GridGraph(5, 5)
	heavy := base.Reweight(func(u, v int, w int64) int64 { return 5 * w })
	distA := hybrid.ExactAPSP(base)
	distB := hybrid.ExactAPSP(heavy)
	tbA := buildTables(t, base, serve.BuildInfo{Rounds: 1})
	tbB := buildTables(t, heavy, serve.BuildInfo{Rounds: 2})

	srv := serve.New(tbA)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 8
	const queriesPerWorker = 150
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := newRand(int64(100 + id))
			client := &http.Client{}
			for q := 0; q < queriesPerWorker; q++ {
				s, to := rng.Intn(base.N()), rng.Intn(base.N())
				wantA, wantB := distA[s][to], distB[s][to]
				if q%2 == 0 {
					var resp serve.DistanceResponse
					doJSON(t, client, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, to), &resp)
					if resp.Unreachable || (resp.Distance != wantA && resp.Distance != wantB) {
						t.Errorf("torn distance %d->%d: got %+v, want %d or %d", s, to, resp, wantA, wantB)
						return
					}
				} else {
					var resp serve.RouteResponse
					doJSON(t, client, fmt.Sprintf("%s/route?s=%d&t=%d", ts.URL, s, to), &resp)
					if resp.Unreachable || (resp.Weight != wantA && resp.Weight != wantB) {
						t.Errorf("torn route %d->%d: got %+v, want weight %d or %d", s, to, resp, wantA, wantB)
						return
					}
					// Same topology in both generations: the walk must be
					// a real path whose hop count matches.
					if len(resp.Path) == 0 || resp.Path[0] != s || resp.Path[len(resp.Path)-1] != to || resp.Hops != len(resp.Path)-1 {
						t.Errorf("route %d->%d malformed path %+v", s, to, resp)
						return
					}
				}
			}
		}(w)
	}

	// The reloader: keep swapping generations until every worker is done.
	go func() {
		flip := false
		for {
			select {
			case <-done:
				return
			default:
			}
			if flip {
				srv.Publish(tbA)
			} else {
				srv.Publish(tbB)
			}
			flip = !flip
		}
	}()
	wg.Wait()
	close(done)

	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if got := stats.DistanceQueries + stats.RouteQueries; got != workers*queriesPerWorker {
		t.Errorf("served %d queries, want %d", got, workers*queriesPerWorker)
	}
}

func doJSON(t *testing.T, client *http.Client, url string, into any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: body %q: %v", url, body, err)
	}
}

// TestReloadEndpoint drives the /admin/reload trigger end to end: method
// gate, not-configured and failure shapes, a successful rebuild + swap
// observed through served distances, and the reload counter in /stats.
func TestReloadEndpoint(t *testing.T) {
	base := hybrid.GridGraph(4, 4)
	heavy := base.Reweight(func(u, v int, w int64) int64 { return 7 * w })
	tbA := buildTables(t, base, serve.BuildInfo{Rounds: 11})
	tbB := buildTables(t, heavy, serve.BuildInfo{Rounds: 22})

	srv := serve.New(tbA)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(into any) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
		if err != nil {
			t.Fatalf("POST /admin/reload: %v", err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("reload body: %v", err)
			}
		}
		return resp.StatusCode
	}

	// GET must stay side-effect free: 405 before any state changes.
	resp, err := http.Get(ts.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d, want 405", resp.StatusCode)
	}

	// No rebuild function registered yet: 503, tables untouched.
	if code := post(nil); code != http.StatusServiceUnavailable {
		t.Fatalf("reload without rebuild = %d, want 503", code)
	}

	// A failing rebuild keeps the old generation and answers 500.
	srv.SetRebuild(func() (*serve.Tables, error) { return nil, fmt.Errorf("synthetic build failure") })
	if code := post(nil); code != http.StatusInternalServerError {
		t.Fatalf("failing reload = %d, want 500", code)
	}
	if srv.Tables() != tbA || srv.Reloads() != 0 {
		t.Fatalf("failed reload mutated state: tables=%p reloads=%d", srv.Tables(), srv.Reloads())
	}

	// A successful reload swaps generations atomically and counts.
	srv.SetRebuild(func() (*serve.Tables, error) { return tbB, nil })
	var ok serve.ReloadResponse
	if code := post(&ok); code != http.StatusOK {
		t.Fatalf("reload = %d, want 200", code)
	}
	if ok.Generation != 1 || ok.Rounds != 22 {
		t.Fatalf("reload response %+v, want generation 1 rounds 22", ok)
	}
	var dr serve.DistanceResponse
	if code := getJSON(t, fmt.Sprintf("%s/distance?s=0&t=%d", ts.URL, base.N()-1), &dr); code != http.StatusOK {
		t.Fatalf("distance after reload = %d", code)
	}
	want := hybrid.ExactAPSP(heavy)[0][base.N()-1]
	if dr.Distance != want {
		t.Fatalf("distance after reload = %d, want %d (new generation)", dr.Distance, want)
	}
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Reloads != 1 || stats.Rounds != 22 {
		t.Fatalf("stats after reload: reloads=%d rounds=%d, want 1/22", stats.Reloads, stats.Rounds)
	}
}

// TestReloadBusy pins the single-flight contract: while one reload is
// mid-build, a second trigger answers 409 instead of stacking a build,
// and queries keep being served from the old generation.
func TestReloadBusy(t *testing.T) {
	g := hybrid.GridGraph(3, 3)
	tb := buildTables(t, g, serve.BuildInfo{Rounds: 1})
	srv := serve.New(tb)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inBuild := make(chan struct{})
	release := make(chan struct{})
	srv.SetRebuild(func() (*serve.Tables, error) {
		close(inBuild)
		<-release
		return tb, nil
	})

	firstDone := make(chan error, 1)
	go func() {
		_, err := srv.Reload()
		firstDone <- err
	}()
	<-inBuild

	resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent reload = %d, want 409", resp.StatusCode)
	}
	var dr serve.DistanceResponse
	if code := getJSON(t, ts.URL+"/distance?s=0&t=8", &dr); code != http.StatusOK {
		t.Fatalf("query during reload = %d, want 200", code)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first reload: %v", err)
	}
	if srv.Reloads() != 1 {
		t.Fatalf("reloads = %d, want 1", srv.Reloads())
	}
}

// lineGraph builds the 4-node weighted path used by the hardening tests.
func lineGraph() *hybrid.Graph {
	g := hybrid.NewGraph(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 5)
	return g
}

// TestServePanicRecovery pins the recovery middleware driven through a
// real chaos.Plan (which also proves the Plan satisfies serve.ChaosHook
// structurally): the injected panic answers 500 JSON, the process and the
// next request survive, and /stats counts it.
func TestServePanicRecovery(t *testing.T) {
	srv := serve.New(buildTables(t, lineGraph(), serve.BuildInfo{}))
	srv.SetChaos(chaos.NewPlan().PanicRequests("/distance", 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var errResp struct {
		Error string `json:"error"`
	}
	if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &errResp); status != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, want 500", status)
	}
	if !strings.Contains(errResp.Error, "panic") {
		t.Errorf("panicked request body: %+v", errResp)
	}

	var resp serve.DistanceResponse
	if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &resp); status != http.StatusOK || resp.Distance != 10 {
		t.Fatalf("request after panic: status %d resp %+v", status, resp)
	}
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", stats.Panics)
	}
}

// blockingHook parks matching requests inside the handler until released,
// so tests can hold requests in-flight deterministically.
type blockingHook struct {
	pathSub string
	entered chan struct{}
	release chan struct{}
}

func newBlockingHook(pathSub string) *blockingHook {
	return &blockingHook{pathSub: pathSub, entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (h *blockingHook) HTTPFault(path string) (time.Duration, bool, bool) {
	if strings.Contains(path, h.pathSub) {
		h.entered <- struct{}{}
		<-h.release
	}
	return 0, false, false
}

func (h *blockingHook) RebuildFault() error { return nil }

// TestServeLoadShed pins the in-flight bound: with one request parked in
// the handler and max-inflight 1, the next query answers 429 with a
// Retry-After header, /healthz still answers (exempt), and releasing the
// parked request restores service.
func TestServeLoadShed(t *testing.T) {
	srv := serve.New(buildTables(t, lineGraph(), serve.BuildInfo{}))
	hook := newBlockingHook("/distance")
	srv.SetChaos(hook)
	srv.SetMaxInflight(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(hook.release)

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/distance?s=0&t=1")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-hook.entered

	resp, err := http.Get(ts.URL + "/distance?s=0&t=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var health map[string]string
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK {
		t.Errorf("/healthz shed under load: status %d", status)
	}

	hook.release <- struct{}{}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("parked request finished with %d", status)
	}
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.LoadShed < 1 {
		t.Errorf("stats.LoadShed = %d, want >= 1", stats.LoadShed)
	}
}

// TestServeRequestTimeout pins the per-request deadline: an injected
// delay past the timeout answers 503 with the JSON timeout body (correct
// Content-Type included), and /stats counts it.
func TestServeRequestTimeout(t *testing.T) {
	srv := serve.New(buildTables(t, lineGraph(), serve.BuildInfo{}))
	srv.SetChaos(chaos.NewPlan().DelayRequests("/distance", 5*time.Second, 1))
	srv.SetRequestTimeout(30 * time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var errResp struct {
		Error string `json:"error"`
	}
	start := time.Now()
	if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &errResp); status != http.StatusServiceUnavailable {
		t.Fatalf("slow request: status %d, want 503", status)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, deadline not enforced", elapsed)
	}
	if errResp.Error != "request timed out" {
		t.Errorf("timeout body: %+v", errResp)
	}

	var resp serve.DistanceResponse
	if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &resp); status != http.StatusOK {
		t.Fatalf("request after timeout: status %d", status)
	}
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.RequestTimeouts != 1 {
		t.Errorf("stats.RequestTimeouts = %d, want 1", stats.RequestTimeouts)
	}
}

// TestServeConnectionReset pins the reset fault: the client observes a
// torn connection (transport error), never a half-valid response, and the
// server keeps serving.
func TestServeConnectionReset(t *testing.T) {
	srv := serve.New(buildTables(t, lineGraph(), serve.BuildInfo{}))
	srv.SetChaos(chaos.NewPlan().ResetRequests("/distance", 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/distance?s=0&t=1")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("reset request succeeded with status %d", resp.StatusCode)
	}
	var ok serve.DistanceResponse
	if status := getJSON(t, ts.URL+"/distance?s=0&t=1", &ok); status != http.StatusOK || ok.Distance != 2 {
		t.Fatalf("request after reset: status %d resp %+v", status, ok)
	}
}

// TestServeDegradedMode pins the last-good-tables contract: a failed
// reload answers 500 on /admin/reload but queries keep working from the
// old generation, /healthz and /stats report degraded + the error, and
// the next successful reload clears the condition.
func TestServeDegradedMode(t *testing.T) {
	srv := serve.New(buildTables(t, lineGraph(), serve.BuildInfo{Rounds: 1}))
	srv.SetRebuild(func() (*serve.Tables, error) {
		return buildTables(t, lineGraph(), serve.BuildInfo{Rounds: 2}), nil
	})
	plan := chaos.NewPlan().FailRebuilds(1)
	srv.SetChaos(plan)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload: status %d, want 500", resp.StatusCode)
	}

	var health map[string]string
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK {
		t.Fatalf("/healthz while degraded: status %d, want 200", status)
	}
	if health["status"] != "degraded" || !strings.Contains(health["error"], "injected rebuild failure") {
		t.Errorf("/healthz while degraded: %+v", health)
	}
	var dist serve.DistanceResponse
	if status := getJSON(t, ts.URL+"/distance?s=0&t=3", &dist); status != http.StatusOK || dist.Distance != 10 {
		t.Fatalf("degraded query: status %d resp %+v (last-good tables must keep serving)", status, dist)
	}
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if !stats.Degraded || stats.ReloadFailures != 1 || stats.LastReloadError == "" || stats.Rounds != 1 {
		t.Errorf("degraded stats: %+v", stats)
	}

	// The fault budget is spent: the next reload succeeds and clears it.
	resp, err = http.Post(ts.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery reload: status %d", resp.StatusCode)
	}
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("/healthz after recovery: status %d %+v", status, health)
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Degraded || stats.LastReloadError != "" || stats.Rounds != 2 {
		t.Errorf("recovered stats: %+v", stats)
	}
}

// TestServeGracefulDrain pins shutdown semantics on a real http.Server:
// Shutdown waits for the in-flight request to complete (it still answers
// 200), while new connections are refused once the drain begins.
func TestServeGracefulDrain(t *testing.T) {
	srv := serve.New(buildTables(t, lineGraph(), serve.BuildInfo{}))
	hook := newBlockingHook("/distance")
	srv.SetChaos(hook)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/distance?s=0&t=3")
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-hook.entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	// The listener closes promptly once Shutdown begins: new connections
	// must be refused while the parked request is still in flight.
	refused := false
	for i := 0; i < 200; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			refused = true
			break
		}
		conn.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections still accepted during drain")
	}

	hook.release <- struct{}{}
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain finished with %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
