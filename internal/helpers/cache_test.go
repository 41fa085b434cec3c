package helpers

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/warm"
)

var cacheEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// computePipeline runs Algorithm 1 collectively on eng and returns the
// per-node results and metrics.
func computePipeline(t *testing.T, g *graph.Graph, inW []bool, mu int, p Params, eng sim.Engine, seed int64) ([]Result, sim.Metrics) {
	t.Helper()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed, Engine: eng}, Pipeline(inW, mu, p))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// structuralHitRounds is the exact round count of a cluster-cache hit: the
// collective agreement plus the 2β-round W flood (no ruling set, no
// cluster formation, no member flood).
func structuralHitRounds(n, mu int) int {
	return 2*sim.Log2Ceil(n) + 2*clusterBeta(n, mu)
}

// TestClusterCacheReuseAcrossRuns pins the structural cache contract on
// every engine: the first cached run pays exactly the agreement on top of
// the uncached construction, a repeat run binds the cached structure and
// pays only agreement + W flood, and neither changes any node's Result.
func TestClusterCacheReuseAcrossRuns(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	const mu = 2
	inW := sampleW(n, 0.3, 7)
	base, baseM := computePipeline(t, g, inW, mu, Params{}, sim.EngineLegacy, 11)
	agreeRounds := 2 * sim.Log2Ceil(n)

	for _, eng := range cacheEngines {
		p := Params{Clusters: NewClusterCache()}
		first, firstM := computePipeline(t, g, inW, mu, p, eng, 11)
		second, secondM := computePipeline(t, g, inW, mu, p, eng, 11)
		if !reflect.DeepEqual(first, base) || !reflect.DeepEqual(second, base) {
			t.Errorf("%s: cached runs produce different results than uncached", eng)
		}
		if firstM.Rounds != baseM.Rounds+agreeRounds {
			t.Errorf("%s: first cached run took %d rounds, want uncached %d + agreement %d",
				eng, firstM.Rounds, baseM.Rounds, agreeRounds)
		}
		if want := structuralHitRounds(n, mu); secondM.Rounds != want {
			t.Errorf("%s: structural hit took %d rounds, want agreement + W flood = %d", eng, secondM.Rounds, want)
		}
	}
}

// TestClusterCacheCrossSeedReuse is the seed-split property at package
// level: the structure cached under one W assignment and seed serves a run
// with a different W and seed — W membership is re-flooded and helper
// sampling redrawn, so the result is byte-identical to that run's own
// uncached output, at structural-hit cost.
func TestClusterCacheCrossSeedReuse(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	const mu = 2
	inWA := sampleW(n, 0.3, 7)
	inWB := sampleW(n, 0.4, 8)
	baseB, _ := computePipeline(t, g, inWB, mu, Params{}, sim.EngineLegacy, 12)

	for _, eng := range cacheEngines {
		p := Params{Clusters: NewClusterCache()}
		computePipeline(t, g, inWA, mu, p, eng, 11) // populate under seed 11 / W_A
		gotB, mB := computePipeline(t, g, inWB, mu, p, eng, 12)
		if !reflect.DeepEqual(gotB, baseB) {
			t.Errorf("%s: cross-seed structural hit diverges from the uncached run of the new seed", eng)
		}
		if want := structuralHitRounds(n, mu); mB.Rounds != want {
			t.Errorf("%s: cross-seed run took %d rounds, want structural hit %d", eng, mB.Rounds, want)
		}
	}
}

// TestClusterCacheSnapshotRestore pins the persistence contract: a
// restored snapshot (round-tripped through gob, as the on-disk codec does)
// serves a structural hit identically to the in-memory cache on every
// engine, and shape validation rejects malformed snapshots.
func TestClusterCacheSnapshotRestore(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	const mu = 2
	inW := sampleW(n, 0.3, 7)

	cache := NewClusterCache()
	computePipeline(t, g, inW, mu, Params{Clusters: cache}, sim.EngineLegacy, 11) // populate
	memOut, memM := computePipeline(t, g, inW, mu, Params{Clusters: cache}, sim.EngineLegacy, 11)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cache.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap ClusterSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	for _, eng := range cacheEngines {
		restored := NewClusterCache()
		if err := restored.Restore(snap, n); err != nil {
			t.Fatal(err)
		}
		out, m := computePipeline(t, g, inW, mu, Params{Clusters: restored}, eng, 11)
		if !reflect.DeepEqual(out, memOut) {
			t.Errorf("%s: restored structural hit differs from warm-memory", eng)
		}
		if m != memM {
			t.Errorf("%s: restored metrics %+v differ from warm-memory %+v", eng, m, memM)
		}
	}

	if err := NewClusterCache().Restore(snap, n+1); err == nil {
		t.Error("restoring a snapshot recorded for a different node count succeeded")
	}

	// A populated slot whose ruler has no stored directory is a dangling
	// reference and must be rejected.
	bad := cache.Snapshot()
	bad.Entries[0].Rulers = nil
	bad.Entries[0].Members = nil
	if err := NewClusterCache().Restore(bad, n); err == nil {
		t.Error("restoring a snapshot with dangling ruler references succeeded")
	}
}

// TestClusterCacheEviction pins the FIFO bound: distinct µ keys beyond
// warm.MaxEntries evict the oldest entry, and a re-keyed construction
// after eviction rebuilds rather than binding stale state.
func TestClusterCacheEviction(t *testing.T) {
	g := graph.Grid(5, 5)
	n := g.N()
	inW := sampleW(n, 0.4, 3)
	cache := NewClusterCache()
	for mu := 1; mu <= warm.MaxEntries+2; mu++ {
		computePipeline(t, g, inW, mu, Params{Clusters: cache}, sim.EngineLegacy, 11)
	}
	if got := cache.Len(); got > warm.MaxEntries {
		t.Fatalf("cache holds %d entries, cap %d", got, warm.MaxEntries)
	}
	// µ=1 was evicted: rerunning it must rebuild (uncached + agreement).
	_, baseM := computePipeline(t, g, inW, 1, Params{}, sim.EngineLegacy, 11)
	_, m := computePipeline(t, g, inW, 1, Params{Clusters: cache}, sim.EngineLegacy, 11)
	if m.Rounds != baseM.Rounds+2*sim.Log2Ceil(n) {
		t.Errorf("evicted key reran in %d rounds, want rebuild %d + agreement %d",
			m.Rounds, baseM.Rounds, 2*sim.Log2Ceil(n))
	}
}
