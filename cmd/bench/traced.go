package main

import (
	"fmt"
	"os"
	"time"
)

// Skeleton exponents the facade uses: Theorem 1.1 samples with x = 1/2,
// KSSPRealMM (δ = 1/3) with x = 2/(3+2δ) = 6/11.
const (
	apspX = 0.5
	ksspX = 6.0 / 11
)

// runTraced makes the separate run the per-layer numbers come from: a
// warm-up, then pairs of one untraced and one traced repetition of the
// workload for c.seconds, at least c.minReps of them (the tracing overhead
// is the traced median over the untraced median), then the probes of every
// layer the workload executes. Metrics of layers it bypasses stay 0.
// End-to-end numbers never come from here.
func runTraced(c *config, w *workload, traceOut string) (*record, error) {
	rec := newRecord(c)
	for _, d := range perLayer() {
		rec.Metrics[d.Name] = sample{Unit: d.Unit}
	}
	tr := newTracer()
	root := tr.begin(-1, 0, c.workload)

	setup := tr.begin(root, 0, "setup")
	inst, err := w.setup(c)
	tr.end(setup)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	// The first repetition in a process also pays for growing the heap
	// (17 % on apsp_grid_1024), so neither side of the overhead is taken
	// from it. The sides alternate so that the host's drift hits both.
	begun := time.Now()
	rec.absorb(inst.op(nil, -1, 0))
	var plainWall, tracedWall []float64
	var traced opResult
	for rep := 1; rep <= c.minReps || time.Since(begun).Seconds() < c.seconds; rep++ {
		plain := inst.op(nil, -1, rep)
		rec.absorb(plain)
		plainWall = append(plainWall, plain.cost.wall.Seconds())
		traced = inst.op(tr, root, rep)
		rec.absorb(traced)
		tracedWall = append(tracedWall, traced.cost.wall.Seconds())
	}
	_, plainMed, _ := quartiles(plainWall)
	_, tracedMed, _ := quartiles(tracedWall)

	p := &prober{c: c, rec: rec, tr: tr, root: root}
	p.set("trace.overhead_pct", "%", 100*(tracedMed/plainMed-1))
	p.set("go.cpu_s", "s", traced.cost.cpu.Seconds())
	p.set("go.gc_cpu_fraction", "ratio", traced.cost.gcCPU.Seconds()/traced.cost.cpu.Seconds())
	p.set("go.num_gc", "count", float64(traced.cost.numGC))
	p.set("go.mallocs", "count", float64(traced.cost.mallocs))
	p.set("go.gc_pause_ms", "ms", ms(traced.cost.gcPause))

	switch in := inst.(type) {
	case *simInstance:
		rec.Checksum = fmt.Sprintf("%016x", traced.checksum)
		p.g = in.g
		p.cfg = in.spec.engine.simConfig()
		m := traced.metrics
		p.set("sim.rounds", "rounds", float64(m.Rounds))
		p.set("sim.global_msgs", "msgs", float64(m.GlobalMsgs))
		p.set("sim.local_gbits", "Gbit", float64(m.LocalBits)/1e9)
		p.set("sim.max_global_recv", "msgs", float64(m.MaxGlobalRecv))
		p.set("sim.max_stretch", "ratio", traced.stretch)
		p.set("sim.node_rounds_per_s", "1/s", float64(in.g.N())*float64(m.Rounds)/traced.cost.wall.Seconds())
		p50, p99, max, top := tr.roundStats(traced.callSpan)
		p.set("sim.round_p50_us", "us", p50)
		p.set("sim.round_p99_us", "us", p99)
		p.set("sim.round_max_ms", "ms", max)
		p.set("sim.top1pct_round_share", "ratio", top)

		p.groundTruth()
		p.dataStructures()
		p.enginePerMessage()
		if in.spec.kssp {
			p.algorithmLayers(ksspX, true)
			p.cliqueMM(ksspX)
			p.otherTheorems(in, in.g.Reweight(func(int, int, int64) int64 { return 1 }))
		} else {
			p.algorithmLayers(apspX, false)
		}
		if in.spec.warm {
			p.warmCache(in, m.Rounds)
		}
		if in.spec.engine == distEngine {
			p.distLayers(in, traced.cost.wall)
		}
	case *serveInstance:
		p.g = in.g
		p.groundTruth()
		p.serveLayers(in, traced.cost)
	}
	tr.end(root)

	if traceOut == "" {
		f, err := os.CreateTemp("", "bench-trace-*.json")
		if err != nil {
			return nil, err
		}
		f.Close()
		traceOut = f.Name()
	}
	if err := tr.write(traceOut, c.workload); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), traceOut)
	rec.Correct = rec.Failed == 0
	return rec, nil
}
