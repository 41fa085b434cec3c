// Package serve is the resident query-serving layer: it keeps the output
// of one APSP run — the distance matrix and the derived next-hop
// forwarding tables — in memory behind an HTTP/JSON API, turning the
// batch simulator into the long-lived "efficient IP-routing" service the
// paper's introduction motivates.
//
// The concurrency contract is immutable-publish / atomic-swap: a Tables
// value is never mutated after Publish; reloads build a complete new
// Tables and swap the server's pointer atomically. Every request loads
// the pointer exactly once and answers entirely from that snapshot, so
// under a mid-flight swap each response is consistent with either the old
// or the new table — never a mix (the reload race test pins this under
// the race detector). Compute (HYBRID rounds) and serve (table lookups)
// are fully split: nothing in this package runs rounds.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// BuildInfo records how a Tables value was computed; it is served verbatim
// by /stats so clients (and the CLI end-to-end test) can observe the APSP
// round count and whether the build warm-started from the snapshot cache.
type BuildInfo struct {
	Graph  string `json:"graph"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Seed   int64  `json:"seed"`
	Engine string `json:"engine"`
	// Rounds is the HYBRID round count of the APSP run that built the
	// tables — lower on a warm start, which is how warm engagement is
	// asserted externally.
	Rounds int `json:"apsp_rounds"`
	// WarmStructural/WarmSeed mirror hybrid.CacheLoadStatus for the load
	// that preceded the build.
	WarmStructural bool `json:"warm_structural"`
	WarmSeed       bool `json:"warm_seed"`
	// BuildMS is the wall-clock cost of the APSP run plus table
	// derivation.
	BuildMS float64 `json:"build_ms"`
}

// Tables is one immutable published generation of serving state: the
// graph it was computed on, the exact distance matrix, and the next-hop
// forwarding tables. Fields must not be mutated after the value is passed
// to New or Publish.
type Tables struct {
	G    *graph.Graph
	Dist [][]int64
	Next [][]int
	Info BuildInfo
}

// NewTables validates the shape of a generation (square n×n tables over
// g's node set) so a malformed publish fails at build time, not on a
// request path.
func NewTables(g *graph.Graph, dist [][]int64, next [][]int, info BuildInfo) (*Tables, error) {
	n := g.N()
	if len(dist) != n || len(next) != n {
		return nil, fmt.Errorf("serve: tables for %d nodes, graph has %d", len(dist), n)
	}
	for v := 0; v < n; v++ {
		if len(dist[v]) != n || len(next[v]) != n {
			return nil, fmt.Errorf("serve: row %d is %d×%d, want %d×%d", v, len(dist[v]), len(next[v]), n, n)
		}
	}
	info.N, info.M = n, g.M()
	return &Tables{G: g, Dist: dist, Next: next, Info: info}, nil
}

// Server answers distance and route queries from the current Tables
// generation. Create with New, swap generations with Publish, mount
// Handler on any http server. All methods are safe for concurrent use.
type Server struct {
	tables atomic.Pointer[Tables]
	start  time.Time

	// rebuild recomputes a fresh Tables generation on demand (nil until
	// SetRebuild); reloadMu serialises rebuilds so concurrent triggers
	// cannot stack APSP runs, and reloads counts completed swaps.
	rebuildMu sync.Mutex
	rebuild   func() (*Tables, error)
	reloadMu  sync.Mutex
	reloads   atomic.Int64

	// Degraded mode: a failed Reload keeps serving the last-good tables
	// but flips degraded and records the error, so /healthz and /stats
	// report the condition while queries keep being answered.
	degraded       atomic.Bool
	lastReloadErr  atomic.Value // of string
	reloadFailures atomic.Int64

	// Resilience knobs (Handler middleware reads these per request, so
	// they can be set before or after the handler is built).
	maxInflight    atomic.Int64 // 0 = unlimited
	inflight       atomic.Int64
	requestTimeout atomic.Int64 // nanoseconds; 0 = no deadline
	chaos          atomic.Value // of chaosBox

	distanceQueries atomic.Int64
	routeQueries    atomic.Int64
	unreachable     atomic.Int64
	badRequests     atomic.Int64
	panics          atomic.Int64
	loadShed        atomic.Int64
	timeouts        atomic.Int64
}

// ChaosHook is the seam the chaos test layer injects faults through. It
// is deliberately a tuple-of-primitives interface so internal/chaos can
// satisfy it structurally without this package importing it, as it does
// dist.FaultHook (chaos imports persist; a serve import would tangle the
// graph). HTTPFault is consulted once per request with the URL path and
// reports injected latency, a forced connection reset, and a forced
// handler panic; RebuildFault is consulted by Reload before the real
// rebuild runs.
type ChaosHook interface {
	HTTPFault(path string) (delay time.Duration, reset, panics bool)
	RebuildFault() error
}

// chaosBox wraps the hook so atomic.Value always stores one concrete type.
type chaosBox struct{ hook ChaosHook }

// SetChaos installs (or, with nil, removes) the fault-injection hook.
func (s *Server) SetChaos(h ChaosHook) { s.chaos.Store(chaosBox{h}) }

func (s *Server) chaosHook() ChaosHook {
	if v := s.chaos.Load(); v != nil {
		return v.(chaosBox).hook
	}
	return nil
}

// SetMaxInflight bounds concurrently served query requests; beyond it the
// handler sheds load with 429 + Retry-After instead of queueing without
// bound. n <= 0 means unlimited. /healthz and /admin/reload are exempt
// (probes and operators must get through precisely when the server is
// drowning).
func (s *Server) SetMaxInflight(n int) { s.maxInflight.Store(int64(n)) }

// SetRequestTimeout bounds the handler time of query requests; past it
// the client gets 503 with a JSON error body. d <= 0 disables the
// deadline. /admin/reload is exempt (a reload legitimately runs for the
// length of an APSP build).
func (s *Server) SetRequestTimeout(d time.Duration) { s.requestTimeout.Store(int64(d)) }

// Degraded reports whether the last reload failed (the server still
// answers from the last-good tables).
func (s *Server) Degraded() bool { return s.degraded.Load() }

func (s *Server) lastReloadError() string {
	if v := s.lastReloadErr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Reload errors. ErrNoRebuild means SetRebuild was never called;
// ErrReloadBusy means another reload is still building.
var (
	ErrNoRebuild  = errors.New("serve: no rebuild function registered")
	ErrReloadBusy = errors.New("serve: reload already in progress")
)

// New returns a Server serving t. A nil t starts the server in the
// not-ready state: /healthz answers 503 and queries are refused until the
// first Publish — this is how cmd/hybridserve accepts connections while
// the APSP build is still running.
func New(t *Tables) *Server {
	s := &Server{start: time.Now()}
	if t != nil {
		s.tables.Store(t)
	}
	return s
}

// Publish atomically swaps the serving state to t. In-flight requests
// keep the generation they loaded; new requests see t.
func (s *Server) Publish(t *Tables) {
	if t == nil {
		panic("serve: Publish(nil)")
	}
	s.tables.Store(t)
}

// Tables returns the current generation (nil before the first Publish).
func (s *Server) Tables() *Tables { return s.tables.Load() }

// SetRebuild registers the function Reload uses to compute a fresh
// generation. The owner (cmd/hybridserve) typically closes over the graph
// and engine configuration of the initial build so a reload recomputes
// tables under the exact same parameters.
func (s *Server) SetRebuild(f func() (*Tables, error)) {
	s.rebuildMu.Lock()
	s.rebuild = f
	s.rebuildMu.Unlock()
}

// Reloads returns how many reloads have completed and swapped tables in.
func (s *Server) Reloads() int64 { return s.reloads.Load() }

// Reload recomputes the serving tables via the registered rebuild function
// and publishes the result atomically. Queries keep being answered from
// the old generation for the entire rebuild; only one reload runs at a
// time (a concurrent trigger gets ErrReloadBusy rather than queueing, so
// a signal storm cannot stack APSP runs).
//
// A failed rebuild does NOT take the server down: the last-good tables
// keep serving, the server enters degraded mode (visible on /healthz and
// /stats with the error), and the next successful reload clears it.
func (s *Server) Reload() (*Tables, error) {
	s.rebuildMu.Lock()
	rebuild := s.rebuild
	s.rebuildMu.Unlock()
	if rebuild == nil {
		return nil, ErrNoRebuild
	}
	if !s.reloadMu.TryLock() {
		return nil, ErrReloadBusy
	}
	defer s.reloadMu.Unlock()
	err := error(nil)
	if hook := s.chaosHook(); hook != nil {
		err = hook.RebuildFault()
	}
	var t *Tables
	if err == nil {
		t, err = rebuild()
	}
	if err != nil {
		err = fmt.Errorf("serve: reload: %w", err)
		s.reloadFailures.Add(1)
		s.lastReloadErr.Store(err.Error())
		s.degraded.Store(true)
		return nil, err
	}
	s.Publish(t)
	s.reloads.Add(1)
	s.degraded.Store(false)
	s.lastReloadErr.Store("")
	return t, nil
}

// Handler returns the HTTP API:
//
//	GET /distance?s=<node>&t=<node>  exact distance (or unreachable)
//	GET /route?s=<node>&t=<node>     hop-by-hop shortest path from the
//	                                 next-hop tables, with total weight
//	GET /stats                       build info + query counters
//	GET /healthz                     200 once tables are published, else 503
//	POST /admin/reload               rebuild + atomically swap the tables
//
// Malformed or out-of-range s/t answer 400 with a JSON error body;
// unreachable pairs are a 200 with "unreachable": true, never a 500.
//
// Query endpoints run behind the full resilience chain — panic recovery
// (500 JSON, process survives), load shedding (429 + Retry-After past
// SetMaxInflight), per-request deadline (503 past SetRequestTimeout), and
// the chaos hook. /healthz and /admin/reload skip shedding and deadlines:
// probes must get through under overload, and a reload legitimately runs
// for the length of an APSP build; both still get panic recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/distance", s.handleDistance)
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/admin/reload", s.handleReload)

	query := s.recoverMW(s.shedMW(s.timeoutMW(s.chaosMW(mux))))
	control := s.recoverMW(s.chaosMW(mux))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/admin/reload":
			control.ServeHTTP(w, r)
		default:
			query.ServeHTTP(w, r)
		}
	})
}

// recoverMW turns a handler panic into a 500 JSON response and a counted
// stat instead of a dead process. http.ErrAbortHandler is re-panicked:
// it is the sanctioned "tear down this connection" signal (the chaos
// reset fault uses it) and net/http both expects and silences it.
func (s *Server) recoverMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			s.panics.Add(1)
			// Best effort: if the handler already wrote headers this is a
			// no-op and net/http cuts the connection mid-body, which the
			// client sees as a malformed response — still no process death.
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
		}()
		next.ServeHTTP(w, r)
	})
}

// shedMW bounds concurrently served requests: past the limit the client
// gets an immediate 429 with Retry-After instead of queueing without
// bound, so overload degrades into fast, honest rejections.
func (s *Server) shedMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if max := s.maxInflight.Load(); max > 0 && n > max {
			s.loadShed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "server overloaded, retry later"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// timeoutBody is the exact 503 body http.TimeoutHandler writes on a
// deadline; timeoutMW's recorder matches it to count timeouts (the only
// other 503 a query endpoint produces — "tables not published yet" — has
// a different body).
const timeoutBody = `{"error":"request timed out"}`

// timeoutRecorder counts deadline 503s written by http.TimeoutHandler.
type timeoutRecorder struct {
	http.ResponseWriter
	srv    *Server
	status int
}

func (t *timeoutRecorder) WriteHeader(code int) {
	t.status = code
	t.ResponseWriter.WriteHeader(code)
}

func (t *timeoutRecorder) Write(b []byte) (int, error) {
	if t.status == http.StatusServiceUnavailable && string(b) == timeoutBody {
		t.srv.timeouts.Add(1)
	}
	return t.ResponseWriter.Write(b)
}

// timeoutMW enforces the per-request deadline via http.TimeoutHandler,
// which buffers handler writes so a timed-out handler racing the 503 can
// never interleave bytes into the response (hand-rolled deadline writers
// get exactly that race wrong). Content-Type is pre-set on the outer
// header because TimeoutHandler's deadline path writes a raw body that
// would otherwise be content-sniffed as text/plain.
func (s *Server) timeoutMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := time.Duration(s.requestTimeout.Load())
		if d <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		rec := &timeoutRecorder{ResponseWriter: w, srv: s}
		http.TimeoutHandler(next, d, timeoutBody).ServeHTTP(rec, r)
	})
}

// chaosMW applies the injected HTTP faults: latency (cancellable by the
// request context, so an injected delay still honors the deadline), a
// connection reset (via http.ErrAbortHandler), or a handler panic (to
// exercise recoverMW). With no hook installed it is a single atomic load.
func (s *Server) chaosMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hook := s.chaosHook()
		if hook == nil {
			next.ServeHTTP(w, r)
			return
		}
		delay, reset, panics := hook.HTTPFault(r.URL.Path)
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
			}
		}
		if reset {
			panic(http.ErrAbortHandler)
		}
		if panics {
			panic("chaos: injected handler panic")
		}
		next.ServeHTTP(w, r)
	})
}

// DistanceResponse is the /distance body.
type DistanceResponse struct {
	S           int   `json:"s"`
	T           int   `json:"t"`
	Distance    int64 `json:"distance"`
	Unreachable bool  `json:"unreachable"`
}

// RouteResponse is the /route body. Path is the node sequence s..t walked
// from the next-hop tables; Weight is its total edge weight, which on
// exact-APSP tables equals the distance.
type RouteResponse struct {
	S           int    `json:"s"`
	T           int    `json:"t"`
	Path        []int  `json:"path,omitempty"`
	Hops        int    `json:"hops"`
	Weight      int64  `json:"weight"`
	Unreachable bool   `json:"unreachable"`
	Error       string `json:"error,omitempty"`
}

// StatsResponse is the /stats body: the published generation's BuildInfo
// plus the server's lifetime query counters.
type StatsResponse struct {
	BuildInfo
	UptimeMS        float64 `json:"uptime_ms"`
	DistanceQueries int64   `json:"distance_queries"`
	RouteQueries    int64   `json:"route_queries"`
	Unreachable     int64   `json:"unreachable"`
	BadRequests     int64   `json:"bad_requests"`
	Reloads         int64   `json:"reloads"`
	// Resilience counters: recovered handler panics, 429-shed requests,
	// deadline 503s, failed reloads, and the degraded flag with the last
	// reload error (empty when healthy).
	Panics          int64  `json:"panics"`
	LoadShed        int64  `json:"load_shed"`
	RequestTimeouts int64  `json:"request_timeouts"`
	ReloadFailures  int64  `json:"reload_failures"`
	Degraded        bool   `json:"degraded"`
	LastReloadError string `json:"last_reload_error"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, a ...any) {
	s.badRequests.Add(1)
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, a...)})
}

// queryPair loads the current generation and parses s/t against its node
// range. It returns tb == nil after writing the response when the request
// cannot proceed (not ready, malformed, out of range).
func (s *Server) queryPair(w http.ResponseWriter, r *http.Request) (tb *Tables, from, to int) {
	tb = s.tables.Load()
	if tb == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "tables not published yet"})
		return nil, 0, 0
	}
	parse := func(name string) (int, bool) {
		raw := r.URL.Query().Get(name)
		if raw == "" {
			s.writeError(w, http.StatusBadRequest, "missing query parameter %q", name)
			return 0, false
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "parameter %s=%q is not an integer", name, raw)
			return 0, false
		}
		if v < 0 || v >= tb.Info.N {
			s.writeError(w, http.StatusBadRequest, "node %s=%d out of range [0,%d)", name, v, tb.Info.N)
			return 0, false
		}
		return v, true
	}
	from, ok := parse("s")
	if !ok {
		return nil, 0, 0
	}
	to, ok = parse("t")
	if !ok {
		return nil, 0, 0
	}
	return tb, from, to
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	tb, from, to := s.queryPair(w, r)
	if tb == nil {
		return
	}
	s.distanceQueries.Add(1)
	resp := DistanceResponse{S: from, T: to}
	if d := tb.Dist[from][to]; d >= graph.Inf {
		s.unreachable.Add(1)
		resp.Unreachable = true
	} else {
		resp.Distance = d
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	tb, from, to := s.queryPair(w, r)
	if tb == nil {
		return
	}
	s.routeQueries.Add(1)
	resp := RouteResponse{S: from, T: to}
	if tb.Dist[from][to] >= graph.Inf {
		s.unreachable.Add(1)
		resp.Unreachable = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	path := graph.FollowRoute(tb.Next, from, to)
	if path == nil {
		// Exact-APSP tables cannot dead-end on a reachable pair; a nil
		// walk means the published generation is internally inconsistent.
		writeJSON(w, http.StatusInternalServerError, RouteResponse{
			S: from, T: to, Error: "forwarding walk failed on published tables",
		})
		return
	}
	weight, ok := graph.PathWeight(tb.G, path)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, RouteResponse{
			S: from, T: to, Error: "forwarding walk left the graph's edge set",
		})
		return
	}
	resp.Path = path
	resp.Hops = len(path) - 1
	resp.Weight = weight
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tb := s.tables.Load()
	resp := StatsResponse{
		UptimeMS:        float64(time.Since(s.start).Microseconds()) / 1000,
		DistanceQueries: s.distanceQueries.Load(),
		RouteQueries:    s.routeQueries.Load(),
		Unreachable:     s.unreachable.Load(),
		BadRequests:     s.badRequests.Load(),
	}
	if tb != nil {
		resp.BuildInfo = tb.Info
	}
	resp.Reloads = s.reloads.Load()
	resp.Panics = s.panics.Load()
	resp.LoadShed = s.loadShed.Load()
	resp.RequestTimeouts = s.timeouts.Load()
	resp.ReloadFailures = s.reloadFailures.Load()
	resp.Degraded = s.degraded.Load()
	resp.LastReloadError = s.lastReloadError()
	writeJSON(w, http.StatusOK, resp)
}

// ReloadResponse is the /admin/reload success body: the build info of the
// generation that was just swapped in.
type ReloadResponse struct {
	Generation int64   `json:"generation"`
	Rounds     int     `json:"apsp_rounds"`
	BuildMS    float64 `json:"build_ms"`
}

// handleReload triggers a rebuild + atomic swap. POST only (a reload is a
// state change, and GET must stay side-effect free for health probes):
// 405 on other methods, 503 when no rebuild function is registered, 409
// when a reload is already building, 500 when the rebuild itself fails.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "reload requires POST"})
		return
	}
	t, err := s.Reload()
	switch {
	case errors.Is(err, ErrNoRebuild):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrReloadBusy):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, ReloadResponse{
			Generation: s.reloads.Load(),
			Rounds:     t.Info.Rounds,
			BuildMS:    t.Info.BuildMS,
		})
	}
}

// handleHealthz: 503 "starting" before the first tables, 200 "degraded"
// with the last reload error while the last reload failed (still 200 —
// the server IS answering queries from last-good tables, and a 503 here
// would make load balancers evict a working replica), 200 "ok" otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.tables.Load() == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
		return
	}
	if s.degraded.Load() {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"error":  s.lastReloadError(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
