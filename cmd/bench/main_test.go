package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// toyConfig runs a workload at toy scale through the code path the real
// runs take: two repetitions, no minimum duration.
func toyConfig(workload string, seed int64) *config {
	return &config{workload: workload, seed: seed, seconds: 0, minReps: 2, sz: toy}
}

// benchmarkSpec is BENCHMARK.json as the test needs it.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the lists the
// program emits from: same workloads with the same reason, same metrics
// with the same unit and direction, in the same order, under the limits of
// the schema.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v is outside the schema's alphabet", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		checkDef(d)
		got := spec.EndToEnd[i]
		if (metricDef{got.Name, got.Unit, got.Better}) != d {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, got.Bound)
		}
	}
	layers := perLayer()
	if len(layers) > 128 || len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d (cap 128)", len(spec.PerLayer), len(layers))
	}
	for i, d := range layers {
		checkDef(d)
		if got := spec.PerLayer[i]; (metricDef{got.Name, got.Unit, got.Better}) != d {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

// exercised lists, per workload, per-layer metrics that must read non-zero
// there because the workload runs that layer; bypassed lists some that must
// read 0 because it does not.
var exercised = map[string][]string{
	"apsp_grid_1024":        {"routing.session.rounds", "routing.route.global_msgs", "skeleton.flood.local_gbits", "ncc.disseminate.wall_ms", "sim.rounds", "sim.round_p50_us", "flatmap.set_add_ns", "graph.apsp_ms"},
	"apsp_geometric_576":    {"helpers.cold.rounds", "ruling.rounds", "sim.local_ns_per_msg"},
	"kssp_mm_sparse_400":    {"cliquesim.rounds", "clique.mm_ms", "kssp.cor46.rounds", "sssp.wall_ms", "diameter.cor52.rounds", "sim.max_stretch"},
	"apsp_grid_1024_warm":   {"cache.hits", "cache.rounds_saved", "cache.cross_seed_rounds", "persist.load_ms", "persist.seed_bytes", "routing.session_warm.rounds"},
	"apsp_grid_256_dist2":   {"wire.encode_ns_per_msg", "wire.bytes_per_msg", "dist.spawn_ms", "dist.route_round_us_full", "dist.slowdown_x"},
	"apsp_grid_576_default": {"sim.barrier_us_per_round", "sim.global_ns_per_msg", "go.mallocs"},
	"serve_zipf_1024":       {"serve.queries_per_s", "serve.query_p99_us", "serve.handler_route_ns", "serve.route_hops_mean", "serve.new_tables_ms", "graph.next_hops_ms"},
}

var bypassed = map[string][]string{
	"apsp_grid_1024":        {"cliquesim.rounds", "cache.hits", "wire.bytes_per_msg", "serve.queries_per_s"},
	"kssp_mm_sparse_400":    {"persist.load_ms", "dist.spawn_ms"},
	"apsp_grid_1024_warm":   {"dist.spawn_ms", "kssp.cor46.rounds"},
	"apsp_grid_576_default": {"cache.misses", "wire.frame_us_4k"},
	"serve_zipf_1024":       {"sim.rounds", "routing.session.rounds", "flatmap.set_add_ns"},
}

// TestSmokeEveryWorkload runs every workload and every probe at toy scale:
// each run must emit exactly the metrics BENCHMARK.json names, every value
// finite, every end-to-end value positive, and nothing may fail.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rec, err := runEndToEnd(toyConfig(w.name, 1), w)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 2 {
				t.Errorf("untraced run: correct=%v failed=%d attempted=%d errors=%v", rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
			}
			if len(rec.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json names %d", len(rec.Metrics), len(spec.EndToEnd))
			}
			for _, d := range spec.EndToEnd {
				if v, ok := rec.Metrics[d.Name]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite %s", d.Name, v, ok, d.Unit)
				}
			}

			rec, err = runTraced(toyConfig(w.name, 1), w, t.TempDir()+"/trace.json")
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("traced run: failed=%d of %d, errors=%v", rec.Failed, rec.Attempted, rec.Errors)
			}
			if len(rec.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d", len(rec.Metrics), len(spec.PerLayer))
			}
			for _, d := range spec.PerLayer {
				if v, ok := rec.Metrics[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want a finite %s", d.Name, v, ok, d.Unit)
				}
			}
			for _, name := range exercised[w.name] {
				if rec.Metrics[name].Value == 0 {
					t.Errorf("%s reads 0 on a workload that runs its layer", name)
				}
			}
			for _, name := range bypassed[w.name] {
				if rec.Metrics[name].Value != 0 {
					t.Errorf("%s = %g on a workload that bypasses its layer", name, rec.Metrics[name].Value)
				}
			}
		})
	}
}

func setupToy(t *testing.T, workload string, seed int64) instance {
	t.Helper()
	inst, err := findWorkload(workload).setup(toyConfig(workload, seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	return inst
}

// TestDeterminismAndSeedPlumbing: the same workload and seed give the same
// model costs and distances; another seed gives the seeded generators
// another graph or query stream.
func TestDeterminismAndSeedPlumbing(t *testing.T) {
	for _, name := range []string{"apsp_geometric_576", "kssp_mm_sparse_400"} {
		a := setupToy(t, name, 7).op(nil, -1, 0)
		b := setupToy(t, name, 7).op(nil, -1, 0)
		if a.failed+b.failed > 0 {
			t.Fatalf("%s failed: %v %v", name, a.errs, b.errs)
		}
		if a.metrics != b.metrics || a.stretch != b.stretch || a.checksum != b.checksum {
			t.Errorf("%s, same seed: (%+v, %g, %x) then (%+v, %g, %x)", name,
				a.metrics, a.stretch, a.checksum, b.metrics, b.stretch, b.checksum)
		}
		g7 := setupToy(t, name, 7).(*simInstance).g
		g8 := setupToy(t, name, 8).(*simInstance).g
		if g7.Fingerprint() == g8.Fingerprint() {
			t.Errorf("%s: seeds 7 and 8 generated the same graph", name)
		}
	}
	q7 := setupToy(t, "serve_zipf_1024", 7).(*serveInstance).queries
	q7b := setupToy(t, "serve_zipf_1024", 7).(*serveInstance).queries
	q8 := setupToy(t, "serve_zipf_1024", 8).(*serveInstance).queries
	if !reflect.DeepEqual(q7, q7b) {
		t.Error("serve_zipf_1024: the same seed generated two query streams")
	}
	if reflect.DeepEqual(q7, q8) {
		t.Error("serve_zipf_1024: seeds 7 and 8 generated the same query stream")
	}
}

// TestCheckerChecks corrupts one cell of the ground truth: a checker that
// compares anything must now report failures.
func TestCheckerChecks(t *testing.T) {
	apsp := setupToy(t, "apsp_grid_1024", 1).(*simInstance)
	apsp.want[3][5]++
	if r := apsp.op(nil, -1, 0); r.failed == 0 {
		t.Error("apsp_grid_1024: a corrupted ground-truth cell went unnoticed")
	}
	ks := setupToy(t, "kssp_mm_sparse_400", 1).(*simInstance)
	ks.want[5][0] = 1 << 40 // every estimate is now below "the distance"
	if r := ks.op(nil, -1, 0); r.failed == 0 {
		t.Error("kssp_mm_sparse_400: a corrupted ground-truth cell went unnoticed")
	}
	srv := setupToy(t, "serve_zipf_1024", 1).(*serveInstance)
	q := srv.queries[0]
	want := make([][]int64, len(srv.dist)) // the server keeps serving the true table
	for i := range want {
		want[i] = append([]int64(nil), srv.dist[i]...)
	}
	want[q.s][q.t]++
	srv.dist = want
	if r := srv.op(nil, -1, 0); r.failed == 0 {
		t.Error("serve_zipf_1024: a reply that differs from ground truth went unnoticed")
	}
}

// TestReconcile: cold and warm grid runs that disagree on the distance
// checksum are a failure.
func TestReconcile(t *testing.T) {
	recs := []record{
		{Workload: "apsp_grid_1024", Checksum: "aa"},
		{Workload: "apsp_grid_1024_warm", Checksum: "aa"},
	}
	if msgs := reconcile(recs); len(msgs) != 0 {
		t.Errorf("agreeing checksums reported: %v", msgs)
	}
	recs[1].Checksum = "ab"
	if msgs := reconcile(recs); len(msgs) != 1 {
		t.Errorf("disagreeing checksums reported %v, want one failure", msgs)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(wall ...float64) []record {
		var recs []record
		for _, w := range wall {
			recs = append(recs, record{Workload: "apsp_grid_1024",
				Metrics: map[string]sample{"wall_s": {Value: w, Unit: "s", Q1: w, Q3: w, N: 3}}})
		}
		return recs
	}
	bounds := []bound{{Name: "wall_s", Better: "lower", Bound: 0.10}}
	for _, tc := range []struct {
		name    string
		a, b    []record
		verdict string
		code    int
	}{
		{"same", run(1.00, 1.01, 1.02, 1.03), run(1.01, 1.00, 1.03, 1.02), "ok", 0},
		{"slower", run(1.00, 1.01, 1.02, 1.03), run(1.20, 1.21, 1.22, 1.23), "worse", 1},
		{"noisy", run(0.8, 1.0, 1.2, 1.4), run(0.9, 1.0, 1.1, 1.5), "unresolved", 0},
		{"noisy but every run faster", run(0.8, 1.0, 1.2, 1.4), run(0.4, 0.5, 0.6, 0.7), "ok", 0},
	} {
		var out bytes.Buffer
		code := compare(&out, tc.a, tc.b, bounds)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; code != tc.code || !strings.HasSuffix(last, tc.verdict) {
			t.Errorf("%s: exit %d, row %q; want exit %d and verdict %s", tc.name, code, last, tc.code, tc.verdict)
		}
	}
}

// TestCompareFailuresAndModelCosts: timings within their bounds do not make
// a comparison pass when b fails more operations or needs more rounds.
func TestCompareFailuresAndModelCosts(t *testing.T) {
	side := func(failed int, rounds float64) []record {
		return []record{
			{Workload: "apsp_grid_1024", Attempted: 4, Failed: failed,
				Metrics: map[string]sample{"wall_s": {Value: 1, Unit: "s", Q1: 1, Q3: 1, N: 3}}},
			{Workload: "apsp_grid_1024", Trace: 1, Attempted: 20,
				Metrics: map[string]sample{"sim.rounds": {Value: rounds, Unit: "rounds"}}},
		}
	}
	bounds := []bound{{Name: "wall_s", Better: "lower", Bound: 0.10}}
	for _, tc := range []struct {
		name     string
		b        []record
		code     int
		worseRow string
	}{
		{"identical", side(0, 100), 0, ""},
		{"fewer rounds", side(0, 90), 0, ""},
		{"one failed operation", side(1, 100), 1, "failed/attempted"},
		{"one more round", side(0, 101), 1, "sim.rounds"},
	} {
		var out bytes.Buffer
		code := compare(&out, side(0, 100), tc.b, bounds)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasSuffix(line, "worse") != (tc.worseRow != "" && strings.Contains(line, tc.worseRow)) {
				t.Errorf("%s: unexpected verdict in row %q", tc.name, line)
			}
		}
	}
}
