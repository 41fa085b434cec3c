package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hybrid "repro"
	"repro/internal/serve"
)

// query is one request of the generated stream.
type query struct {
	s, t  int
	route bool
}

// routeEvery makes every 4th query a /route walk; the rest are /distance.
const routeEvery = 4

// serveInstance is internal/serve behind a real loopback http.Server, the
// generated query stream, and one keep-alive connection per client. The
// client is a closed loop: each of the nproc clients sends its next query
// only after reading the previous reply.
type serveInstance struct {
	g       *hybrid.Graph
	dist    [][]int64 // ground truth, and the table being served
	httpSrv *http.Server
	served  chan error // Serve's return value, once the server has stopped
	queries []query
	clients []*client

	// Filled by every pass, sized once.
	latency []time.Duration
	replies []reply
}

// reply locates one response body in its client's arena, so that bodies are
// checked after the pass instead of inside the closed loop.
type reply struct {
	client   int
	off, end int
	status   int
}

type client struct {
	conn  net.Conn
	br    *bufio.Reader
	req   []byte
	arena bytes.Buffer // every response body of the current pass
}

func setupServe(c *config) (instance, error) {
	in := &serveInstance{g: hybrid.GridGraph(c.sz.gridBig, c.sz.gridBig)}
	in.dist = hybrid.ExactAPSP(in.g)
	tables, err := serve.NewTables(in.g, in.dist, hybrid.NextHops(in.g, in.dist),
		serve.BuildInfo{Graph: "grid", Seed: c.seed, Engine: "sequential"})
	if err != nil {
		return nil, err
	}

	// Zipf-distributed sources (a few hot origins), uniform targets.
	n := in.g.N()
	rng := rand.New(rand.NewSource(c.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	in.queries = make([]query, c.sz.serveQueries)
	for i := range in.queries {
		in.queries[i] = query{s: int(zipf.Uint64()), t: rng.Intn(n), route: i%routeEvery == routeEvery-1}
	}
	in.latency = make([]time.Duration, len(in.queries))
	in.replies = make([]reply, len(in.queries))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.httpSrv = &http.Server{Handler: serve.New(tables).Handler()}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()

	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, &client{conn: conn, br: bufio.NewReader(conn)})
	}
	// Warm-up: connections established, server goroutines and buffers hot.
	in.pass(c.sz.serveWarmup)
	return in, nil
}

func (in *serveInstance) close() {
	for _, cl := range in.clients {
		cl.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := in.httpSrv.Shutdown(ctx); err != nil {
		in.httpSrv.Close()
	}
	<-in.served
}

// pass replays the first count queries of the stream through the clients
// and returns how many requests could not be completed at all.
func (in *serveInstance) pass(count int) (transportErrs int64) {
	if count > len(in.queries) {
		count = len(in.queries)
	}
	var cursor, errs atomic.Int64
	var wg sync.WaitGroup
	for id, cl := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.arena.Reset()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= count {
					return
				}
				start := time.Now()
				status, off, err := cl.do(in.queries[i])
				in.latency[i] = time.Since(start)
				if err != nil {
					errs.Add(1)
					status = 0
				}
				in.replies[i] = reply{client: id, off: off, end: cl.arena.Len(), status: status}
			}
		}()
	}
	wg.Wait()
	return errs.Load()
}

// do writes one request and reads its response, appending the body to the
// client's arena; off is where the body starts.
func (cl *client) do(q query) (status, off int, err error) {
	cl.req = cl.req[:0]
	if q.route {
		cl.req = append(cl.req, "GET /route?s="...)
	} else {
		cl.req = append(cl.req, "GET /distance?s="...)
	}
	cl.req = strconv.AppendInt(cl.req, int64(q.s), 10)
	cl.req = append(cl.req, "&t="...)
	cl.req = strconv.AppendInt(cl.req, int64(q.t), 10)
	cl.req = append(cl.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	off = cl.arena.Len()
	if _, err = cl.conn.Write(cl.req); err != nil {
		return 0, off, err
	}
	resp, err := http.ReadResponse(cl.br, nil)
	if err != nil {
		return 0, off, err
	}
	defer resp.Body.Close()
	_, err = cl.arena.ReadFrom(resp.Body)
	return resp.StatusCode, off, err
}

// op is one timed pass over the whole stream followed by the check of
// every reply: status 200, /distance equal to ground truth, /route a walk
// along graph edges whose weight is the distance.
func (in *serveInstance) op(tr *tracer, parent, rep int) opResult {
	r := opResult{attempted: len(in.queries)}
	r.callSpan = tr.begin(parent, rep, "pass")
	var transport int64
	r.cost = measure(func() { transport = in.pass(len(in.queries)) })
	tr.end(r.callSpan)
	if transport > 0 {
		r.fail("%d requests failed in transport", transport)
		r.failed += int(transport) - 1
	}
	for i, q := range in.queries {
		rp := in.replies[i]
		if rp.status == 0 {
			continue // counted above
		}
		body := in.clients[rp.client].arena.Bytes()[rp.off:rp.end]
		if err := in.check(q, rp.status, body); err != nil {
			r.fail("query %d (%+v): %v", i, q, err)
		}
	}
	return r
}

func (in *serveInstance) check(q query, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	want := in.dist[q.s][q.t]
	if !q.route {
		var resp serve.DistanceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Unreachable || resp.Distance != want {
			return fmt.Errorf("distance %d (unreachable=%v), ground truth %d", resp.Distance, resp.Unreachable, want)
		}
		return nil
	}
	var resp serve.RouteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Path) == 0 || resp.Path[0] != q.s || resp.Path[len(resp.Path)-1] != q.t {
		return fmt.Errorf("path %v does not lead from s to t", resp.Path)
	}
	if w, ok := hybrid.PathWeight(in.g, resp.Path); !ok || w != want || resp.Weight != want {
		return fmt.Errorf("route weight %d (walk %d, on edges=%v), ground truth %d", resp.Weight, w, ok, want)
	}
	return nil
}

// latencyStats summarises the last pass, in microseconds.
func (in *serveInstance) latencyStats() (p50, p95, p99, p999 float64) {
	us := make([]float64, len(in.latency))
	for i, d := range in.latency {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	return percentile(us, 0.5), percentile(us, 0.95), percentile(us, 0.99), percentile(us, 0.999)
}

// replyCounts returns the 429s and the mean /route hop count of the last pass.
func (in *serveInstance) replyCounts() (shed int, hopsMean float64) {
	var hops, routes int
	for i, q := range in.queries {
		rp := in.replies[i]
		if rp.status == http.StatusTooManyRequests {
			shed++
		}
		if q.route && rp.status == http.StatusOK {
			var resp serve.RouteResponse
			if json.Unmarshal(in.clients[rp.client].arena.Bytes()[rp.off:rp.end], &resp) == nil {
				hops += resp.Hops
				routes++
			}
		}
	}
	if routes > 0 {
		hopsMean = float64(hops) / float64(routes)
	}
	return shed, hopsMean
}
