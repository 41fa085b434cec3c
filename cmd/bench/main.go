// Command bench is the repository's one benchmark. BENCHMARK.json at the
// repository root names its workloads and metrics; README.md beside this
// file is the glossary.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload: with --trace 0 it repeats the operation for the given
// time and prints the end-to-end metrics, with --trace 1 it alternates
// untraced and traced repetitions for that time and then runs the per-layer
// probes. Every output is verified against sequential ground truth. The last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}.
//
//	bench --seed <n> [--out runs.jsonl]
//
// without --workload runs every workload, untraced then traced, each in its
// own child process, one at a time, and reconciles them with each other.
//
//	bench compare a.jsonl b.jsonl
//
// compares two --out files metric by metric against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// record is one run of one workload as --out stores it, one JSON object per
// line. The last line of standard output is its Correct, Attempted, Failed
// and Metrics (value and unit only).
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Runner    runner            `json:"runner"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Checksum  string            `json:"checksum,omitempty"` // distance matrix fingerprint (sim workloads)
	Metrics   map[string]sample `json:"metrics"`
}

// runner says where the numbers were taken.
type runner struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisRunner() runner {
	r := runner{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	return r
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "generates the inputs: graph, weights, query stream")
	seconds := flag.Float64("seconds", 10, "how long a run repeats the operation (at least 3 repetitions; traced: 3 untraced/traced pairs)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced repetitions and the per-layer probes")
	out := flag.String("out", "", "append the run's record(s) to this JSON-lines file")
	traceOut := flag.String("trace-out", "", "where a traced run writes its spans (default: a temp file)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *out))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	c := &config{workload: *name, seed: *seed, seconds: *seconds, minReps: 3, sz: full}
	var rec *record
	var err error
	if *trace == 0 {
		rec, err = runEndToEnd(c, w)
	} else {
		rec, err = runTraced(c, w, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rec.Trace = *trace
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	rec.print()
	if !rec.Correct {
		os.Exit(1)
	}
}

func newRecord(c *config) *record {
	return &record{Workload: c.workload, Seed: c.seed, Seconds: c.seconds,
		Runner: thisRunner(), Metrics: map[string]sample{}}
}

// absorb folds one operation's verdict into the record.
func (rec *record) absorb(r opResult) {
	rec.Attempted += r.attempted
	rec.Failed += r.failed
	for _, e := range r.errs {
		if len(rec.Errors) < 10 {
			rec.Errors = append(rec.Errors, e)
		}
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off: set-up
// repeated while it is cheap, one untimed operation, then timed operations
// until c.seconds have passed since the set-up, at least c.minReps of them.
func runEndToEnd(c *config, w *workload) (*record, error) {
	rec := newRecord(c)

	// Set-up is repeated so that setup_s is a median (of many values where
	// it takes milliseconds), but an expensive set-up (the warm workload's
	// cold run) is paid once.
	const setupReps, setupBudget = 49, 2 * time.Second
	var inst instance
	var setups []float64
	for begun := time.Now(); len(setups) < setupReps && (len(setups) == 0 || time.Since(begun) < setupBudget); {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	rec.Metrics["setup_s"] = summarize("s", setups)

	// One untimed repetition first: it alone pays for growing the heap of a
	// fresh process (+17 % on apsp_grid_1024), and with three timed
	// repetitions the median would be the slower of the other two.
	begun := time.Now()
	rec.absorb(inst.op(nil, -1, 0))
	var wall, alloc []float64
	for len(wall) < c.minReps || time.Since(begun).Seconds() < c.seconds {
		r := inst.op(nil, -1, 1+len(wall))
		rec.absorb(r)
		rec.Checksum = fmt.Sprintf("%016x", r.checksum)
		wall = append(wall, r.cost.wall.Seconds())
		alloc = append(alloc, r.cost.allocMB)
	}
	rec.Metrics["wall_s"] = summarize("s", wall)
	rec.Metrics["alloc_mb"] = summarize("MB", alloc)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.Metrics["peak_rss_mb"] = sample{Value: rss, Unit: "MB"}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// peakRSSMB is VmHWM of this process: the high-water mark of its resident
// set, set-up and every repetition included.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// print writes every metric by name with its unit, then the result line.
func (rec *record) print() {
	defs := endToEnd
	if rec.Trace != 0 {
		defs = perLayer()
	}
	fmt.Printf("workload %s seed %d trace %d (nproc %d, GOMAXPROCS %d, %s, commit %s)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Runner.NProc, rec.Runner.GOMAXPROCS, rec.Runner.Go, rec.Runner.Commit)
	for _, e := range rec.Errors {
		fmt.Printf("FAILED %s\n", e)
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]short{}}
	for _, d := range defs {
		s := rec.Metrics[d.Name]
		if s.N > 1 {
			fmt.Printf("%-28s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", d.Name, s.Value, d.Unit)
		}
		last.Metrics[d.Name] = short{s.Value, d.Unit}
	}
	fmt.Printf("failure_rate %g (%d failed of %d attempted)\n",
		float64(rec.Failed)/math.Max(1, float64(rec.Attempted)), rec.Failed, rec.Attempted)
	line, err := json.Marshal(last)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Printf("%s\n", line)
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// runAll runs every workload, untraced then traced, each in a freshly
// exec'd child so that peak_rss_mb and the allocator's state belong to one
// workload; children never overlap. It then reconciles the workloads that
// must agree with each other and returns the exit code.
func runAll(seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if out == "" {
		f, err := os.CreateTemp("", "bench-runs-*.jsonl")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		f.Close()
		out = f.Name()
	}
	before, _ := readRecords(out) // a missing file holds no records
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s --trace %d: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	recs, err := readRecords(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, msg := range reconcile(recs[len(before):]) {
		fmt.Printf("FAILED %s\n", msg)
		code = 1
	}
	fmt.Printf("records appended to %s\n", out)
	return code
}

// reconcile checks what one workload alone cannot: the cold and the warm
// 1024-grid runs must have produced the same distance matrix. (That
// EngineDist's Metrics equal EngineStep's is checked inside
// apsp_grid_256_dist2, on every repetition.)
func reconcile(recs []record) []string {
	sums := map[string]string{}
	for _, r := range recs {
		if r.Trace == 0 {
			sums[r.Workload] = r.Checksum
		}
	}
	cold, warm := sums["apsp_grid_1024"], sums["apsp_grid_1024_warm"]
	if cold != "" && warm != "" && cold != warm {
		return []string{fmt.Sprintf("apsp_grid_1024 checksum %s differs from apsp_grid_1024_warm's %s", cold, warm)}
	}
	return nil
}
