package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the bench wraps its own calls to the layers' public functions. A span's
// ID is its index in tracer.spans; Parent is -1 for the root.
type span struct {
	Parent int
	Rep    int
	Name   string
	Start  int64 // ns since the tracer was created
	End    int64
}

// tracer keeps spans in a preallocated slice until the run ends. A nil
// tracer records nothing, which is how the untraced runs use the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	// A traced repetition records a span per round: ~75 000 on the largest
	// workload, three times in a run of 10 s, so this capacity is not
	// outgrown mid-measurement.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(parent, rep int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Parent: parent, Rep: rep, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = t.now()
	}
}

// rounds returns a sim.Config.OnRound hook recording one "round" span per
// completed barrier under parent, or nil on a nil tracer.
func (t *tracer) rounds(parent, rep int) func(int) {
	if t == nil {
		return nil
	}
	last := t.now()
	return func(int) {
		now := t.now()
		t.spans = append(t.spans, span{Parent: parent, Rep: rep, Name: "round", Start: last, End: now})
		last = now
	}
}

// roundStats summarises the round spans under parent: median, p99 and
// maximum round time, and the share of the total spent in the slowest 1 %
// of rounds (the tail the one-round skeleton combine produces).
func (t *tracer) roundStats(parent int) (p50us, p99us, maxMs, top1Share float64) {
	var d []float64
	var total float64
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == "round" {
			d = append(d, float64(s.End-s.Start))
			total += float64(s.End - s.Start)
		}
	}
	if len(d) == 0 || total == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(d)
	var top float64
	for _, x := range d[len(d)-(len(d)+99)/100:] {
		top += x
	}
	return percentile(d, 0.5) / 1e3, percentile(d, 0.99) / 1e3, d[len(d)-1] / 1e6, top / total
}

// write stores the spans as one JSON array. Self time is a span's duration
// minus the part its children cover.
func (t *tracer) write(path, workload string) error {
	type row struct {
		ID       int    `json:"id"`
		Parent   int    `json:"parent"`
		Workload string `json:"workload"`
		Rep      int    `json:"rep"`
		Name     string `json:"name"`
		StartNS  int64  `json:"start_ns"`
		EndNS    int64  `json:"end_ns"`
		SelfNS   int64  `json:"self_ns"`
	}
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{i, s.Parent, workload, s.Rep, s.Name, s.Start, s.End, s.End - s.Start}
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			rows[s.Parent].SelfNS -= s.End - s.Start
		}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
