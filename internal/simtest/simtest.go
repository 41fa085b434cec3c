// Package simtest is what the protocol packages' pinned-trace tests share.
// Each protocol's message trace — the engine's full cost report plus a hash
// of what every node computed — was recorded from the blocking form of the
// protocol before that form was deleted; a test asserts that the machine
// form still reproduces it on every engine, next to the sequential
// ground-truth check of the same output.
package simtest

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	_ "repro/internal/dist" // registers EngineDist's router
	"repro/internal/graph"
	"repro/internal/sim"
)

// Engines lists every engine a pinned trace is asserted on.
var Engines = []sim.Engine{sim.EngineStep, sim.EngineLegacy, sim.EngineDist}

// Pin is the frozen outcome of one protocol run: Metrics, and the FNV-1a
// hash of every node's output words, node by node with a length prefix.
type Pin struct {
	Metrics sim.Metrics
	Sum     uint64
}

// Factory builds one node's machine; emit appends to that node's output
// words.
type Factory func(env *sim.Env, emit func(words ...int64)) sim.StepProgram

// Machines runs factory's machines on every engine of Engines and fails t
// where a run does not reproduce pin.
func Machines(t *testing.T, name string, g *graph.Graph, seed int64, pin Pin, factory Factory) {
	t.Helper()
	for _, eng := range Engines {
		Run(t, name, g, eng, seed, pin, factory)
	}
}

// Run is Machines on one engine, for tests that carry state (a warm-start
// cache) from one run to the next and need a fresh one per engine.
func Run(t *testing.T, name string, g *graph.Graph, eng sim.Engine, seed int64, pin Pin, factory Factory) {
	t.Helper()
	out := make([][]int64, g.N())
	m, err := sim.RunStep(g, sim.Config{Seed: seed, Engine: eng}, func(env *sim.Env) sim.StepProgram {
		id := env.ID()
		return factory(env, func(words ...int64) { out[id] = append(out[id], words...) })
	})
	check(t, name+" on "+eng.String(), pin, m, err, out)
}

func check(t *testing.T, name string, pin Pin, m sim.Metrics, err error, out [][]int64) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := fnv.New64a()
	var w [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	for _, words := range out {
		put(int64(len(words)))
		for _, v := range words {
			put(v)
		}
	}
	if got := (Pin{Metrics: m, Sum: h.Sum64()}); got != pin {
		t.Errorf("%s: trace diverged from the pinned one (re-pin only if the protocol changed on purpose):\n got %#v\nwant %#v", name, got, pin)
	}
}

// Ints widens a node-ID list to output words, length first.
func Ints(ids []int) []int64 {
	out := make([]int64, 0, len(ids)+1)
	out = append(out, int64(len(ids)))
	for _, id := range ids {
		out = append(out, int64(id))
	}
	return out
}

// Bool is b as an output word.
func Bool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
