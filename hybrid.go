// Package hybrid is a Go implementation of the HYBRID network model and of
// the shortest-path and diameter algorithms of Kuhn & Schneider,
// "Computing Shortest Paths and Diameter in the Hybrid Network Model"
// (PODC 2020), built on the model of Augustine et al. (SODA 2020).
//
// The HYBRID model couples two communication modes over a node set
// {0..n-1}: a LOCAL mode with unbounded bandwidth along the edges of a
// local graph G, and an NCC-style global mode in which every node may send
// O(log n) messages of O(log n) bits per round to arbitrary nodes. The
// package runs real message-passing node programs under a synchronous
// round barrier and reports the paper's cost measures: rounds, global
// messages, per-round load. Every algorithm is written once, as a resumable
// state machine per node (sim.StepProgram), and three interchangeable round
// engines execute the machines (WithEngine): the goroutine-free step engine
// a Network uses unless told otherwise, the goroutine-per-node legacy engine
// kept as the reference the others are tested against, and the
// multi-process distributed engine (EngineDist), which routes every global
// message through per-shard worker OS processes over a checksummed wire
// protocol. All engines produce byte-identical results and Metrics for a
// fixed seed.
// ARCHITECTURE.md documents the machine form, the engine designs, and when
// to pick which engine.
//
// Results implemented (all exact/approximation guarantees are verified by
// the test suite against sequential ground truth):
//
//   - Theorem 1.1: exact APSP in O~(sqrt n) rounds — Network.APSP.
//   - The O~(n^(2/3)) APSP of Augustine et al. it improves on —
//     Network.APSPBaseline.
//   - Theorem 2.2: the token routing protocol — Network.TokenRouting.
//   - Theorem 1.2 / Corollaries 4.6-4.8: approximate k-SSP —
//     Network.KSSP with the Cor46/Cor47/Cor48/KSSPRealMM spec values.
//   - Theorem 1.3 / Corollary 4.9: exact SSSP in O~(n^(2/5)) — Network.SSSP.
//   - Theorem 1.4 / Corollaries 5.2-5.3: diameter approximation —
//     Network.Diameter with the DiamCor52/DiamCor53/DiamRealMM spec values.
//   - Theorems 1.5-1.6: the lower-bound constructions (Figures 1-2) with
//     machine-checked dichotomy lemmas — see internal/lowerbound and the
//     examples/lowerbound program.
//
// Quickstart:
//
//	g := hybrid.GridGraph(16, 16)
//	net := hybrid.New(g, hybrid.WithSeed(1))
//	res, err := net.APSP()
//	// res.Dist[u][v] is the exact distance; res.Metrics.Rounds the cost.
//
// A Network also holds a per-instance run context: routing sessions
// (helper families, hash) are cached across calls keyed by their instance
// parameters, so repeated runs on one Network — sweeps, re-queries,
// multi-phase workloads — skip most of the routing setup rounds. Runs on
// one Network must be sequential (they share the cache).
//
// For the serving side of the paper's IP-routing application — a
// long-lived process answering distance/route queries from resident APSP
// and next-hop tables over HTTP — see cmd/hybridserve and ARCHITECTURE.md's
// "Compute vs serve" section.
package hybrid

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/clique"
	"repro/internal/diameter"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/helpers"
	"repro/internal/hybridapsp"
	"repro/internal/kssp"
	"repro/internal/persist"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Metrics is the per-run cost report (rounds, message counts, peak loads).
type Metrics = sim.Metrics

// Engine selects the round-engine implementation executing the node
// programs; see WithEngine.
type Engine = sim.Engine

const (
	// EngineStep is the default engine: goroutine-free, each node runs as
	// an explicit resumable state machine and the round loop itself is the
	// barrier; message staging is sharded and delivery runs on a worker
	// pool with preallocated, reused inboxes. See ARCHITECTURE.md for the
	// design and measured numbers.
	EngineStep = sim.EngineStep
	// EngineLegacy is the reference engine: one goroutine per node blocking
	// at a barrier and a single delivery coordinator. It is slower but
	// maximally simple, and is kept as the differential-testing oracle: for
	// any fixed seed all engines produce byte-identical results and Metrics.
	EngineLegacy = sim.EngineLegacy
	// EngineDist is the multi-process distributed engine: node machines
	// step in the coordinator, but every global-mode message is routed
	// through its destination shard's worker OS process over the
	// internal/dist wire protocol (unix sockets to children it starts
	// itself, or WithDistConnect addresses) with per-frame checksums,
	// timeouts, bounded retries, and kill/respawn/replay. It is
	// slower than EngineStep — every round that carries a global message
	// pays real serialization and socket round trips — and exists as the
	// message-passing deployment shape of the HYBRID model, validated
	// byte-identical against the in-process engines. Configure with
	// WithWorkers, WithDistConnect and WithDistOptions.
	EngineDist = sim.EngineDist
)

// DistOptions sets EngineDist's frame timeout and fault injection and names
// pre-started workers; it is an alias for the dist package's Options. The
// retry, backoff and respawn budgets are fixed, and the run's deadline is
// WithContext's. Tests inject faults via WithDistOptions(dist.WithFaults(...)).
type DistOptions = dist.Options

// Network wraps a local communication graph with run configuration and the
// per-instance run context (the routing session cache). Runs on one
// Network must be sequential; create separate Networks for concurrent
// workloads.
type Network struct {
	g        *graph.Graph
	cfg      sim.Config
	sessions *routing.SessionCache
	clusters *helpers.ClusterCache
	cacheDir string
}

// Option configures a Network.
type Option func(*Network)

// WithSeed roots all of the run's randomness (fully reproducible runs).
func WithSeed(seed int64) Option {
	return func(nw *Network) { nw.cfg.Seed = seed }
}

// WithEngine selects the round engine (default EngineStep). Engines change
// wall-clock speed and deployment shape only: results and Metrics are
// engine-independent for a fixed seed. See ARCHITECTURE.md for the measured
// tradeoffs.
func WithEngine(e Engine) Option {
	return func(nw *Network) { nw.cfg.Engine = e }
}

// WithShards overrides the step engine's shard count (default:
// autotuned from the CPU count and graph size). Results are independent of
// the value; it exists for tuning and determinism tests.
func WithShards(s int) Option {
	return func(nw *Network) { nw.cfg.Shards = s }
}

// WithWorkers sets EngineDist's worker-process count (default
// sim.DefaultDistWorkers); the distributed engine runs one shard per
// worker. Results are independent of the value. Other engines ignore it.
func WithWorkers(w int) Option {
	return func(nw *Network) { nw.cfg.DistWorkers = w }
}

// WithDistOptions sets EngineDist's frame timeout and fault injection (nil:
// defaults). Other engines ignore it.
func WithDistOptions(o *DistOptions) Option {
	return func(nw *Network) { nw.cfg.DistOpts = o }
}

// WithDistConnect names EngineDist's workers: instead of starting local
// child processes the coordinator dials these pre-started workers
// (scheme-prefixed addresses, e.g.
// "tcp:10.0.0.7:9000"), one per shard in shard order — typically
// `hybridworker -listen` processes on other machines. The worker count
// follows the address count. Composes with WithDistOptions (the
// addresses are merged into whichever options are in effect).
func WithDistConnect(addrs ...string) Option {
	return func(nw *Network) {
		var o DistOptions
		if prev, ok := nw.cfg.DistOpts.(*DistOptions); ok && prev != nil {
			o = *prev
		}
		o.Connect = append([]string(nil), addrs...)
		nw.cfg.DistOpts = &o
		nw.cfg.DistWorkers = len(addrs)
	}
}

// WithCut marks a node bipartition whose crossing global traffic is counted
// in Metrics (used by the lower-bound experiments).
func WithCut(cut []bool) Option {
	return func(nw *Network) { nw.cfg.Cut = append([]bool(nil), cut...) }
}

// WithContext attaches a cancellation context to the network's runs: every
// engine checks it at each round boundary and aborts cooperatively, so a
// cancelled run returns promptly with an error for which
// errors.Is(err, context.Canceled) (or DeadlineExceeded) holds. EngineDist
// also ends every wait of a round trip to its workers by the context's
// deadline.
func WithContext(ctx context.Context) Option {
	return func(nw *Network) { nw.cfg.Ctx = ctx }
}

// WithProgress registers a per-round progress hook: fn is invoked once per
// completed round barrier with the number of rounds completed so far, on
// every engine. It runs on the engine's coordinator, so it must be fast
// and must not call back into the network. The final generation that
// retires the last nodes also ticks, so the last value may exceed the
// result's Metrics.Rounds by one (don't treat Metrics.Rounds as the
// hook's ceiling), and the hook may still fire for the round in which a
// run failed or was cancelled.
func WithProgress(fn func(round int)) Option {
	return func(nw *Network) { nw.cfg.OnRound = fn }
}

// WithCacheDir selects the directory used by SaveCache/LoadCache for the
// persistent warm-start cache (cluster structures + routing sessions). The
// directory is created on first save. Cache files are keyed by the graph's
// fingerprint and the seed, so one directory can serve many instances. The
// option only records the location; call LoadCache/SaveCache (or use
// hybridsim's -cache-dir, which does both) to actually touch disk.
func WithCacheDir(dir string) Option {
	return func(nw *Network) { nw.cacheDir = dir }
}

// WithCacheTrace installs a cache-event hook on both warm-start caches: fn
// receives one line per collective cache agreement ("clusters µ=…: hit",
// "session …: rebuild"). The sequence is deterministic for a fixed seed and
// identical on every engine; the golden round-trace test pins it, and it is
// useful for verifying that a warm-started run skipped construction.
func WithCacheTrace(fn func(event string)) Option {
	return func(nw *Network) {
		nw.sessions.SetTrace(fn)
		nw.clusters.SetTrace(fn)
	}
}

// New creates a Network over g. The graph must be connected for the
// paper's algorithms to have their guarantees; New does not copy g, and g
// must not be mutated during runs.
func New(g *graph.Graph, opts ...Option) *Network {
	nw := &Network{
		g:        g,
		sessions: routing.NewSessionCache(),
		clusters: helpers.NewClusterCache(),
	}
	for _, o := range opts {
		o(nw)
	}
	return nw
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.g.N() }

// run executes one algorithm pipeline under the network's configuration. It
// is the single execution path behind every facade entry point. (A
// package-level function because Go methods cannot be generic.)
func run[T any](nw *Network, p sim.Pipeline[T]) ([]T, Metrics, error) {
	return sim.RunPipeline(nw.g, nw.cfg, p)
}

// routingParams is the routing configuration every facade run shares: the
// network's session cache (repeated calls reuse helper families and hashes
// whenever the instance parameters and memberships recur) and the cluster
// cache (the seed-independent ruling-set/cluster structure is reused per
// µ, within a run and across runs — including runs warm-started from a
// different seed's structural cache section).
func (nw *Network) routingParams() routing.Params {
	return routing.Params{
		Cache:   nw.sessions,
		Helpers: helpers.Params{Clusters: nw.clusters},
	}
}

// APSPResult holds a full distance matrix and the run's cost.
type APSPResult struct {
	// Dist[u][v] is the (exact) distance from u to v, Inf if unreachable.
	Dist    [][]int64
	Metrics Metrics
}

// APSP solves all-pairs shortest paths exactly in O~(sqrt n) rounds
// (Theorem 1.1).
func (nw *Network) APSP() (*APSPResult, error) {
	return nw.apsp(hybridapsp.Pipeline(nw.apspParams()))
}

// APSPBaseline solves APSP exactly with the O~(n^(2/3)) algorithm of
// Augustine et al. (SODA '20) that Theorem 1.1 improves on.
func (nw *Network) APSPBaseline() (*APSPResult, error) {
	return nw.apsp(hybridapsp.BaselinePipeline(nw.apspParams()))
}

// APSPLocalOnly solves APSP using only the local mode, flooding for the
// given number of rounds (exact iff rounds >= hop diameter) — the Θ(D)
// LOCAL baseline of the paper's §1.
func (nw *Network) APSPLocalOnly(rounds int) (*APSPResult, error) {
	return nw.apsp(hybridapsp.LocalPipeline(rounds))
}

func (nw *Network) apspParams() hybridapsp.Params {
	return hybridapsp.Params{Routing: nw.routingParams()}
}

func (nw *Network) apsp(p sim.Pipeline[[]int64]) (*APSPResult, error) {
	out, m, err := run(nw, p)
	if err != nil {
		return nil, err
	}
	return &APSPResult{Dist: out, Metrics: m}, nil
}

// KSSPSpec is a self-describing k-SSP algorithm selection: one of the
// Theorem 1.2 instantiations, carrying its name and guarantee into the
// result. Construct one with Cor46, Cor47, Cor48 or KSSPRealMM; the zero
// value is invalid.
type KSSPSpec struct {
	name      string
	guarantee string
	alg       kssp.AlgSpec
	valid     bool
}

// Name identifies the instantiation (e.g. "Cor4.6(ε=0.5)").
func (s KSSPSpec) Name() string { return s.name }

// Guarantee states the approximation and round guarantee the spec carries.
func (s KSSPSpec) Guarantee() string { return s.guarantee }

func defaultEps(eps float64) float64 {
	if eps <= 0 {
		return 0.5
	}
	return eps
}

// Cor46 is Corollary 4.6: (3+ε) weighted / (1+ε) unweighted approximation
// in O~(n^(1/3)/ε) rounds for up to n^(1/3) sources (declared-cost
// oracle). eps <= 0 defaults to 0.5.
func Cor46(eps float64) KSSPSpec {
	eps = defaultEps(eps)
	return KSSPSpec{
		name:      fmt.Sprintf("Cor4.6(ε=%g)", eps),
		guarantee: fmt.Sprintf("(3+ε) weighted / (1+ε) unweighted, O~(n^(1/3)/ε) rounds, k <= n^(1/3) sources, ε=%g", eps),
		alg:       kssp.Corollary46(eps, 0),
		valid:     true,
	}
}

// Cor47 is Corollary 4.7: (7+ε) weighted / (2+ε) unweighted approximation
// in O~(n^(1/3)/ε + sqrt k) rounds for arbitrary k (declared-cost oracle).
// eps <= 0 defaults to 0.5.
func Cor47(eps float64) KSSPSpec {
	eps = defaultEps(eps)
	return KSSPSpec{
		name:      fmt.Sprintf("Cor4.7(ε=%g)", eps),
		guarantee: fmt.Sprintf("(7+ε) weighted / (2+ε) unweighted, O~(n^(1/3)/ε + sqrt k) rounds, arbitrary k, ε=%g", eps),
		alg:       kssp.Corollary47(eps, 0),
		valid:     true,
	}
}

// Cor48 is Corollary 4.8: (3+o(1)) weighted / (1+ε) unweighted
// approximation in O~(n^0.397 + sqrt k) rounds (declared-cost oracle at
// δ = ρ). eps <= 0 defaults to 0.5.
func Cor48(eps float64) KSSPSpec {
	eps = defaultEps(eps)
	return KSSPSpec{
		name:      fmt.Sprintf("Cor4.8(ε=%g)", eps),
		guarantee: fmt.Sprintf("(3+o(1)) weighted / (1+ε) unweighted, O~(n^0.397 + sqrt k) rounds, ε=%g", eps),
		alg:       kssp.Corollary48(eps, 0),
		valid:     true,
	}
}

// KSSPRealMM runs the semiring matrix-multiplication APSP with real
// messages (δ = 1/3, exact on the skeleton): factor 3 weighted / (1+2/η)
// unweighted. eta outside (0, +Inf) defaults to 2.
func KSSPRealMM(eta float64) KSSPSpec {
	if !(eta > 0) || math.IsInf(eta, 1) {
		eta = 2
	}
	return KSSPSpec{
		name:      fmt.Sprintf("RealMM(η=%g)", eta),
		guarantee: fmt.Sprintf("factor 3 weighted / (1+2/η) unweighted via real-message semiring MM (δ=1/3), η=%g", eta),
		alg:       kssp.RealMM(eta),
		valid:     true,
	}
}

// KSSPResult holds per-node estimated distances to each source, tagged
// with the spec that produced them.
type KSSPResult struct {
	// Dist[v][source] is node v's estimate d~(v, source).
	Dist    []map[int]int64
	Sources []int
	// Algorithm and Guarantee identify the spec value the run used.
	Algorithm string
	Guarantee string
	Metrics   Metrics
}

// KSSP solves the k-source shortest paths problem approximately
// (Theorem 1.2) with the chosen spec value, e.g.
// net.KSSP(sources, hybrid.Cor46(0.25)).
func (nw *Network) KSSP(sources []int, spec KSSPSpec) (*KSSPResult, error) {
	if !spec.valid {
		return nil, fmt.Errorf("hybrid: invalid k-SSP spec (use Cor46, Cor47, Cor48 or KSSPRealMM)")
	}
	n := nw.g.N()
	isSource := make([]bool, n)
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("hybrid: source %d out of range", s)
		}
		isSource[s] = true
	}
	out, m, err := run(nw, kssp.Pipeline(isSource, len(sources), spec.alg, nw.ksspParams()))
	if err != nil {
		return nil, err
	}
	dist := make([]map[int]int64, n)
	for v, res := range out {
		mp := make(map[int]int64, len(res))
		for _, sd := range res {
			mp[sd.Source] = sd.Dist
		}
		dist[v] = mp
	}
	return &KSSPResult{
		Dist:      dist,
		Sources:   append([]int(nil), sources...),
		Algorithm: spec.name,
		Guarantee: spec.guarantee,
		Metrics:   m,
	}, nil
}

func (nw *Network) ksspParams() kssp.Params {
	return kssp.Params{Routing: nw.routingParams()}
}

// SSSPResult holds per-node exact distances to the single source.
type SSSPResult struct {
	Source  int
	Dist    []int64
	Metrics Metrics
}

// SSSP solves single-source shortest paths exactly in O~(n^(2/5)) rounds
// (Theorem 1.3 / Corollary 4.9).
func (nw *Network) SSSP(source int) (*SSSPResult, error) {
	n := nw.g.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("hybrid: source %d out of range", source)
	}
	isSource := make([]bool, n)
	isSource[source] = true
	out, m, err := run(nw, kssp.Pipeline(isSource, 1, kssp.Corollary49(), nw.ksspParams()))
	if err != nil {
		return nil, err
	}
	dist := make([]int64, n)
	for v, res := range out {
		for _, sd := range res {
			if sd.Source == source {
				dist[v] = sd.Dist
			}
		}
	}
	return &SSSPResult{Source: source, Dist: dist, Metrics: m}, nil
}

// DiameterSpec is a self-describing diameter algorithm selection
// (Theorem 1.4), carrying its name and guarantee into the result.
// Construct one with DiamCor52, DiamCor53 or DiamRealMM; the zero value is
// invalid.
type DiameterSpec struct {
	name      string
	guarantee string
	alg       kssp.AlgSpec
	valid     bool
}

// Name identifies the instantiation (e.g. "Cor5.2(ε=0.5)").
func (s DiameterSpec) Name() string { return s.name }

// Guarantee states the approximation and round guarantee the spec carries.
func (s DiameterSpec) Guarantee() string { return s.guarantee }

// DiamCor52 is Corollary 5.2: a (3/2+ε)-approximation (plus the 2/η
// exploration slack of Theorem 5.1) in O~(n^(1/3)/ε) rounds
// (declared-cost oracle). eps <= 0 defaults to 0.5.
func DiamCor52(eps float64) DiameterSpec {
	eps = defaultEps(eps)
	return DiameterSpec{
		name:      fmt.Sprintf("Cor5.2(ε=%g)", eps),
		guarantee: fmt.Sprintf("D <= D~ <= (3/2+ε+2/η)·D, O~(n^(1/3)/ε) rounds, ε=%g", eps),
		alg:       diameter.Corollary52(eps, 0),
		valid:     true,
	}
}

// DiamCor53 is Corollary 5.3: a (1+ε)-approximation in O~(n^0.397/ε)
// rounds (declared-cost oracle at δ = ρ). eps <= 0 defaults to 0.5.
func DiamCor53(eps float64) DiameterSpec {
	eps = defaultEps(eps)
	return DiameterSpec{
		name:      fmt.Sprintf("Cor5.3(ε=%g)", eps),
		guarantee: fmt.Sprintf("D <= D~ <= (1+ε+2/η)·D, O~(n^0.397/ε) rounds, ε=%g", eps),
		alg:       diameter.Corollary53(eps, 0),
		valid:     true,
	}
}

// DiamRealMM computes the exact skeleton diameter with real messages
// (δ = 1/3): a (1+2/η)-approximation end to end. eta outside (0, +Inf)
// defaults to 2.
func DiamRealMM(eta float64) DiameterSpec {
	if !(eta > 0) || math.IsInf(eta, 1) {
		eta = 2
	}
	return DiameterSpec{
		name:      fmt.Sprintf("RealMM(η=%g)", eta),
		guarantee: fmt.Sprintf("D <= D~ <= (1+2/η)·D via exact skeleton diameter (real messages, δ=1/3), η=%g", eta),
		alg:       diameter.RealMM(eta),
		valid:     true,
	}
}

// DiameterResult holds the estimate every node agreed on, tagged with the
// spec that produced it.
type DiameterResult struct {
	Estimate int64
	// Algorithm and Guarantee identify the spec value the run used.
	Algorithm string
	Guarantee string
	Metrics   Metrics
}

// Diameter estimates the hop diameter D(G) (Theorem 1.4) on unweighted
// graphs with the chosen spec value, e.g.
// net.Diameter(hybrid.DiamCor52(0.25)): D <= Estimate per the spec's
// guarantee.
func (nw *Network) Diameter(spec DiameterSpec) (*DiameterResult, error) {
	if !spec.valid {
		return nil, fmt.Errorf("hybrid: invalid diameter spec (use DiamCor52, DiamCor53 or DiamRealMM)")
	}
	out, m, err := run(nw, diameter.Pipeline(spec.alg, nw.ksspParams()))
	if err != nil {
		return nil, err
	}
	est, err := uniformEstimate(out, "diameter")
	if err != nil {
		return nil, err
	}
	return &DiameterResult{Estimate: est, Algorithm: spec.name, Guarantee: spec.guarantee, Metrics: m}, nil
}

// WeightedDiameterApprox computes a factor-2 approximation of the WEIGHTED
// diameter max d(u,v) via one exact SSSP run plus eccentricity doubling —
// the O~(n^(1/3))-class upper bound the paper notes in §1.1 (footnote 6).
// D_w <= Estimate <= 2·D_w.
func (nw *Network) WeightedDiameterApprox() (*DiameterResult, error) {
	out, m, err := run(nw, diameter.WeightedApproxPipeline(kssp.Corollary49(), nw.ksspParams()))
	if err != nil {
		return nil, err
	}
	est, err := uniformEstimate(out, "weighted diameter")
	if err != nil {
		return nil, err
	}
	return &DiameterResult{
		Estimate:  est,
		Algorithm: "WeightedApprox",
		Guarantee: "D_w <= D~ <= 2·D_w via exact SSSP eccentricity doubling",
		Metrics:   m,
	}, nil
}

// uniformEstimate returns the estimate every node agreed on, or an error
// naming the first disagreeing node. The paper's protocols end with a
// globally announced value, so a disagreement means a w.h.p. event failed
// — surfacing it beats silently picking node 0's answer.
func uniformEstimate(out []int64, what string) (int64, error) {
	for v := 1; v < len(out); v++ {
		if out[v] != out[0] {
			return 0, fmt.Errorf("hybrid: nodes disagree on %s estimate (node %d: %d vs node 0: %d)", what, v, out[v], out[0])
		}
	}
	if len(out) == 0 {
		return 0, nil
	}
	return out[0], nil
}

// RoutingSpec is one node's view of a token routing instance
// (Theorem 2.2): the tokens it sends, the labels it expects, and the
// globally known instance parameters. See routing.Spec for field docs.
type RoutingSpec = routing.Spec

// RoutingToken is one routed token: a RoutingLabel plus its O(log n)-bit
// payload.
type RoutingToken = routing.Token

// RoutingLabel identifies a token by (sender, receiver, index).
type RoutingLabel = routing.Label

// TokenRouting exposes Theorem 2.2 directly: route the given tokens
// (specs[v] is node v's view) and return each node's received tokens.
// Sessions are cached on the Network, so repeated instances with the same
// parameters and memberships skip the helper-family setup.
func (nw *Network) TokenRouting(specs []RoutingSpec) ([][]RoutingToken, Metrics, error) {
	if len(specs) != nw.g.N() {
		return nil, Metrics{}, fmt.Errorf("hybrid: %d specs for %d nodes", len(specs), nw.g.N())
	}
	if err := routing.Validate(specs); err != nil {
		return nil, Metrics{}, err
	}
	out, m, err := run(nw, routing.Pipeline(specs, nw.routingParams()))
	if err != nil {
		return nil, Metrics{}, err
	}
	return out, m, nil
}

// Ensure the facade's variants remain wired to implementations that expose
// the interfaces they promise.
var _ clique.Algorithm = (*clique.MM)(nil)

// cacheFormatVersion gates the on-disk warm-start cache format. Bump it
// whenever the serialized shape of any snapshot changes; older files are
// then rejected (clean cold start), never migrated. v2 split the cache
// into a seed-independent structural file and a seed-specific file,
// deduplicated per-cluster state, and flate-compressed the payloads; v1
// files are rejected with persist.ErrVersion.
const cacheFormatVersion = 2

// structPayload is the on-disk structural section: the seed-independent
// cluster structures (ruling sets, ruler assignments, member directories)
// plus the graph identity they were recorded under. One structural file
// serves every seed of a graph — it is what a cross-seed run warm-starts
// from.
type structPayload struct {
	N           int
	Fingerprint uint64
	Clusters    helpers.ClusterSnapshot
}

// seedPayload is the on-disk seed section: the (seed-dependent) session
// snapshot plus the full instance identity. Session entries reference
// cluster structures by (µ, ruler); resolving them needs the structural
// section, so a seed file is only usable together with its graph's
// structural file. The identity is redundant with the file name but is
// validated on load, so a file renamed or copied across instances is
// rejected instead of trusted. Seed files that also carry skeleton results
// (written before those left the cache) still load: gob skips the field.
type seedPayload struct {
	N           int
	Seed        int64
	Fingerprint uint64
	Sessions    routing.CacheSnapshot
}

// CachePath returns the file the network's seed-specific cache section
// persists to: <cacheDir>/warm-<graph fingerprint>-seed<seed>.hybc. It
// returns "" when no cache directory is configured (WithCacheDir).
func (nw *Network) CachePath() string {
	if nw.cacheDir == "" {
		return ""
	}
	return filepath.Join(nw.cacheDir,
		fmt.Sprintf("warm-%016x-seed%d.hybc", nw.g.Fingerprint(), nw.cfg.Seed))
}

// StructCachePath returns the file the network's seed-independent
// structural cache section persists to:
// <cacheDir>/warm-<graph fingerprint>-struct.hybc — shared by every seed
// over the same graph. It returns "" when no cache directory is
// configured.
func (nw *Network) StructCachePath() string {
	if nw.cacheDir == "" {
		return ""
	}
	return filepath.Join(nw.cacheDir,
		fmt.Sprintf("warm-%016x-struct.hybc", nw.g.Fingerprint()))
}

// SaveCache persists the network's warm-start caches to the configured
// cache directory, atomically: the seed-independent cluster structures to
// StructCachePath (shared across seeds) and the session snapshot to
// CachePath. A later Network over the same graph and seed can LoadCache
// both and skip session construction entirely; one over the same graph and
// a different seed loads the structural section alone and still skips the
// ruling-set and cluster-formation rounds. Must not be called while a run
// is in flight.
func (nw *Network) SaveCache() error {
	if nw.cacheDir == "" {
		return fmt.Errorf("hybrid: no cache directory configured (use WithCacheDir)")
	}
	sessions, err := nw.sessions.Snapshot(nw.clusters)
	if err != nil {
		return fmt.Errorf("hybrid: snapshotting sessions: %w", err)
	}
	sp := structPayload{
		N:           nw.g.N(),
		Fingerprint: nw.g.Fingerprint(),
		Clusters:    nw.clusters.Snapshot(),
	}
	if err := persist.SaveCompressed(nw.StructCachePath(), cacheFormatVersion, sp); err != nil {
		return err
	}
	pl := seedPayload{
		N:           nw.g.N(),
		Seed:        nw.cfg.Seed,
		Fingerprint: nw.g.Fingerprint(),
		Sessions:    sessions,
	}
	return persist.SaveCompressed(nw.CachePath(), cacheFormatVersion, pl)
}

// CacheLoadStatus reports which sections of the warm-start cache a
// LoadCache call restored.
type CacheLoadStatus struct {
	// Structural reports that the seed-independent section (cluster
	// structures) was restored.
	Structural bool
	// Seed reports that the seed-specific section (routing sessions) was
	// restored.
	Seed bool
}

// Any reports whether any section was restored.
func (s CacheLoadStatus) Any() bool { return s.Structural || s.Seed }

// LoadCache restores the warm-start caches from the configured cache
// directory. Missing files are not errors: a missing structural file is a
// plain cold start, and a present structural file with a missing seed file
// is the cross-seed partial warm start (status.Structural true, Seed
// false) — the run reuses cluster structures and rebuilds the rest. Every
// rejection — corrupt file, format-version mismatch (including v1 files),
// instance mismatch, dangling dedup reference — returns a zero status and
// an error, and leaves ALL caches empty: a bad cache file never changes
// results, only the number of setup rounds, and a partially trusted file
// set is never used. Must not be called while a run is in flight.
func (nw *Network) LoadCache() (CacheLoadStatus, error) {
	if nw.cacheDir == "" {
		return CacheLoadStatus{}, fmt.Errorf("hybrid: no cache directory configured (use WithCacheDir)")
	}
	status, err := nw.loadCacheSections()
	if err != nil {
		// Leave no half-warm state behind: clearing via Restore keeps any
		// WithCacheTrace hooks installed.
		n := nw.g.N()
		if cerr := nw.clusters.Restore(helpers.ClusterSnapshot{}, n); cerr != nil {
			return CacheLoadStatus{}, fmt.Errorf("%w (and clearing clusters: %v)", err, cerr)
		}
		if cerr := nw.sessions.Restore(routing.CacheSnapshot{}, n, nw.clusters); cerr != nil {
			return CacheLoadStatus{}, fmt.Errorf("%w (and clearing sessions: %v)", err, cerr)
		}
		return CacheLoadStatus{}, err
	}
	return status, nil
}

// loadCacheSections restores the structural then the seed section,
// reporting what it managed; any returned error means the caches may hold
// partial state and must be cleared by the caller.
func (nw *Network) loadCacheSections() (CacheLoadStatus, error) {
	var status CacheLoadStatus
	n := nw.g.N()

	structPath := nw.StructCachePath()
	var sp structPayload
	err := persist.LoadCompressed(structPath, cacheFormatVersion, &sp)
	switch {
	case os.IsNotExist(err):
		// No structural section. A v2 seed file cannot be resolved without
		// it, so this is a full cold start regardless of the seed file —
		// unless a file sits at the seed path, which is either the v1
		// upgrade shape (the v1 release wrote a single file under the same
		// name; report the version mismatch, not a missing sibling) or an
		// incomplete v2 set (e.g. the structural file was deleted): reject
		// loudly rather than silently ignoring a file that was supposed to
		// warm us.
		if info, perr := persist.Probe(nw.CachePath()); perr == nil {
			if info.Version != cacheFormatVersion {
				return status, fmt.Errorf("hybrid: rejecting warm-start cache: %w: %s: file has format v%d, this build reads v%d",
					persist.ErrVersion, nw.CachePath(), info.Version, cacheFormatVersion)
			}
			return status, fmt.Errorf("hybrid: rejecting warm-start cache %s: seed section present but structural section %s is missing",
				nw.CachePath(), structPath)
		} else if !os.IsNotExist(perr) {
			return status, fmt.Errorf("hybrid: rejecting warm-start cache: %w", perr)
		}
		return status, nil
	case err != nil:
		return status, fmt.Errorf("hybrid: rejecting warm-start cache: %w", err)
	}
	if sp.N != n || sp.Fingerprint != nw.g.Fingerprint() {
		return status, fmt.Errorf("hybrid: rejecting warm-start cache %s: recorded for n=%d graph %016x, this network is n=%d graph %016x",
			structPath, sp.N, sp.Fingerprint, n, nw.g.Fingerprint())
	}
	if err := nw.clusters.Restore(sp.Clusters, n); err != nil {
		return status, fmt.Errorf("hybrid: rejecting warm-start cache %s: %w", structPath, err)
	}
	status.Structural = true

	seedPath := nw.CachePath()
	var pl seedPayload
	err = persist.LoadCompressed(seedPath, cacheFormatVersion, &pl)
	switch {
	case os.IsNotExist(err):
		return status, nil // cross-seed partial warm start
	case err != nil:
		return status, fmt.Errorf("hybrid: rejecting warm-start cache: %w", err)
	}
	if pl.N != n || pl.Seed != nw.cfg.Seed || pl.Fingerprint != nw.g.Fingerprint() {
		return status, fmt.Errorf("hybrid: rejecting warm-start cache %s: recorded for n=%d seed=%d graph %016x, this network is n=%d seed=%d graph %016x",
			seedPath, pl.N, pl.Seed, pl.Fingerprint, n, nw.cfg.Seed, nw.g.Fingerprint())
	}
	if err := nw.sessions.Restore(pl.Sessions, n, nw.clusters); err != nil {
		return status, fmt.Errorf("hybrid: rejecting warm-start cache %s: %w", seedPath, err)
	}
	status.Seed = true
	return status, nil
}

// CacheFileInfo describes one on-disk warm-start cache section file, for
// diagnostics (hybridsim's cache summary).
type CacheFileInfo struct {
	// Path is the section's file path ("" when no cache dir is set).
	Path string
	// Exists reports whether a well-formed cache header was found there.
	Exists bool
	// Version is the format version the file claims (compare against 2;
	// a v1 file is reported as Version 1, not an error).
	Version uint32
	// Bytes is the total file size on disk.
	Bytes int64
}

// CacheFiles probes the two cache section files without decoding their
// payloads: cheap size/format diagnostics for CLI summaries. Malformed or
// missing files report Exists false.
func (nw *Network) CacheFiles() (structural, seed CacheFileInfo) {
	probe := func(path string) CacheFileInfo {
		info := CacheFileInfo{Path: path}
		if path == "" {
			return info
		}
		pi, err := persist.Probe(path)
		if err != nil {
			return info
		}
		info.Exists = true
		info.Version = pi.Version
		info.Bytes = pi.FileBytes
		return info
	}
	return probe(nw.StructCachePath()), probe(nw.CachePath())
}
