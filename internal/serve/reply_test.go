// Reply-level tests of the query path: every /distance and /route body is
// byte-for-byte what json.NewEncoder(w).Encode(resp) writes for the reply
// value, and a 200 query allocates nothing in the server's own code.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	hybrid "repro"
	"repro/internal/serve"
)

// twoComponents is a weighted path 0-1-2-3 beside a lone edge 4-5, so it
// has reachable, unreachable and s == t pairs of every kind.
func twoComponents() *hybrid.Graph {
	g := hybrid.NewGraph(6)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(4, 5, 7)
	return g
}

// encoded is json.NewEncoder(w).Encode(v) into a buffer.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// getRaw fetches url and returns the status, the Content-Type values and
// the body as sent.
func getRaw(t *testing.T, url string) (int, []string, []byte) {
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
	return resp.StatusCode, resp.Header.Values("Content-Type"), body
}

// checkReply fails unless a reply has the given status, exactly one
// Content-Type of application/json, and exactly the body want.
func checkReply(t *testing.T, url string, wantStatus int, want []byte) {
	t.Helper()
	status, ct, body := getRaw(t, url)
	if status != wantStatus || len(ct) != 1 || ct[0] != "application/json" || !bytes.Equal(body, want) {
		t.Errorf("GET %s:\n got %d %q %q\nwant %d [\"application/json\"] %q", url, status, ct, body, wantStatus, want)
	}
}

// TestServeRepliesByteIdentical holds every 200 reply of /distance and
// /route on every pair, and the error replies, to the bytes a fresh
// json.Encoder writes for the reply value.
func TestServeRepliesByteIdentical(t *testing.T) {
	g := twoComponents()
	dist := hybrid.ExactAPSP(g)
	next := hybrid.NextHops(g, dist)
	srv := serve.New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	notReady := []byte(`{"error":"tables not published yet"}` + "\n")
	checkReply(t, ts.URL+"/distance?s=0&t=1", http.StatusServiceUnavailable, notReady)
	checkReply(t, ts.URL+"/route?s=0&t=1", http.StatusServiceUnavailable, notReady)

	srv.Publish(buildTables(t, g, serve.BuildInfo{}))
	for s := 0; s < g.N(); s++ {
		for tt := 0; tt < g.N(); tt++ {
			d := serve.DistanceResponse{S: s, T: tt, Distance: dist[s][tt]}
			r := serve.RouteResponse{S: s, T: tt}
			if dist[s][tt] >= hybrid.Inf {
				d.Distance, d.Unreachable, r.Unreachable = 0, true, true
			} else {
				r.Path = hybrid.FollowRoute(next, s, tt)
				r.Hops = len(r.Path) - 1
				r.Weight, _ = hybrid.PathWeight(g, r.Path)
			}
			checkReply(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, tt), http.StatusOK, encoded(t, d))
			checkReply(t, fmt.Sprintf("%s/route?s=%d&t=%d", ts.URL, s, tt), http.StatusOK, encoded(t, r))
		}
	}
	// Literals too, so the format itself is pinned and not only the encoder.
	checkReply(t, ts.URL+"/distance?s=0&t=3", http.StatusOK, []byte(`{"s":0,"t":3,"distance":10,"unreachable":false}`+"\n"))
	checkReply(t, ts.URL+"/distance?s=1&t=5", http.StatusOK, []byte(`{"s":1,"t":5,"distance":0,"unreachable":true}`+"\n"))
	checkReply(t, ts.URL+"/route?s=3&t=0", http.StatusOK, []byte(`{"s":3,"t":0,"path":[3,2,1,0],"hops":3,"weight":10,"unreachable":false}`+"\n"))
	checkReply(t, ts.URL+"/route?s=2&t=2", http.StatusOK, []byte(`{"s":2,"t":2,"path":[2],"hops":0,"weight":0,"unreachable":false}`+"\n"))
	checkReply(t, ts.URL+"/route?s=0&t=4", http.StatusOK, []byte(`{"s":0,"t":4,"hops":0,"weight":0,"unreachable":true}`+"\n"))

	for _, c := range []struct{ query, body string }{
		{"s=0", `{"error":"missing query parameter \"t\""}`},
		{"t=0", `{"error":"missing query parameter \"s\""}`},
		{"s=&t=1", `{"error":"missing query parameter \"s\""}`},
		{"s=0&t=abc", `{"error":"parameter t=\"abc\" is not an integer"}`},
		{"s=%2B1x&t=1", `{"error":"parameter s=\"+1x\" is not an integer"}`},
		{"s=-1&t=0", `{"error":"node s=-1 out of range [0,6)"}`},
		{"s=0&t=6", `{"error":"node t=6 out of range [0,6)"}`},
	} {
		for _, endpoint := range []string{"/distance", "/route"} {
			checkReply(t, ts.URL+endpoint+"?"+c.query, http.StatusBadRequest, []byte(c.body+"\n"))
		}
	}

	// Inconsistent tables (NewTables certifies the distances, not the next
	// hops): a dead end, then a hop along a non-edge, each a 500 in
	// RouteResponse's shape.
	broken := make([][]int, len(next))
	for v := range next {
		broken[v] = append([]int(nil), next[v]...)
	}
	broken[0][3] = -1
	broken[1][2] = 3
	tb, err := serve.NewTables(g, dist, broken, serve.BuildInfo{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Publish(tb)
	checkReply(t, ts.URL+"/route?s=0&t=3", http.StatusInternalServerError,
		[]byte(`{"s":0,"t":3,"hops":0,"weight":0,"unreachable":false,"error":"forwarding walk failed on published tables"}`+"\n"))
	checkReply(t, ts.URL+"/route?s=1&t=2", http.StatusInternalServerError,
		[]byte(`{"s":1,"t":2,"hops":0,"weight":0,"unreachable":false,"error":"forwarding walk left the graph's edge set"}`+"\n"))
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// recorder is a reusable http.ResponseWriter: its header map and body
// buffer are kept across requests, so what a request allocates is the
// server's own.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// TestServeQueryZeroAlloc is the allocation gate of the query path: a 200
// /distance or /route through the full Handler chain allocates nothing
// once the pools are warm — no url.Values, no encoder, no boxed reply, no
// path slice. What net/http allocates per request (the Request, its
// header map) is outside this measurement.
func TestServeQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random, so pooled buffers are reallocated")
	}
	h := serve.New(buildTables(t, twoComponents(), serve.BuildInfo{})).Handler()
	rec := &recorder{header: http.Header{}}
	for _, target := range []string{
		"/distance?s=0&t=3", "/distance?s=0&t=5", "/distance?s=2&t=2",
		"/route?s=0&t=3", "/route?s=3&t=0", "/route?s=0&t=5", "/route?s=2&t=2",
	} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		serveOnce := func() {
			rec.body.Reset()
			rec.status = 0
			h.ServeHTTP(rec, req)
		}
		serveOnce()
		if rec.status != http.StatusOK || rec.body.Len() == 0 {
			t.Fatalf("%s: status %d body %q", target, rec.status, rec.body.Bytes())
		}
		if got := testing.AllocsPerRun(200, serveOnce); got != 0 {
			t.Errorf("%s: %.1f allocations per request, want 0", target, got)
		}
	}
}
