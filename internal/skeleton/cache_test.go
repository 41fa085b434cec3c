package skeleton

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/sim"
	"repro/internal/warm"
)

var cacheEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// computePipeline runs Algorithm 6 collectively on eng and returns the
// per-node results and metrics.
func computePipeline(t *testing.T, g *graph.Graph, p Params, force []bool, eng sim.Engine, seed int64) ([]Result, sim.Metrics) {
	t.Helper()
	forced := func(id int) bool { return force != nil && force[id] }
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed, Engine: eng}, Pipeline(p, forced))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// TestResultCacheReuseAcrossRuns pins the cache contract on every engine:
// the first cached run pays exactly the 2·ceil(log2 n)-round agreement on
// top of the uncached construction, a repeat run binds the cached results
// in agreement-only rounds, and neither changes any node's Result.
func TestResultCacheReuseAcrossRuns(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	p := Params{X: 0.5}
	base, baseM := computePipeline(t, g, p, nil, sim.EngineLegacy, 11)
	agreeRounds := 2 * sim.Log2Ceil(n)

	for _, eng := range cacheEngines {
		cached := Params{X: 0.5, Cache: NewResultCache()}
		first, firstM := computePipeline(t, g, cached, nil, eng, 11)
		second, secondM := computePipeline(t, g, cached, nil, eng, 11)
		if !reflect.DeepEqual(first, base) || !reflect.DeepEqual(second, base) {
			t.Errorf("%s: cached runs produce different skeletons than uncached", eng)
		}
		if firstM.Rounds != baseM.Rounds+agreeRounds {
			t.Errorf("%s: first cached run took %d rounds, want uncached %d + agreement %d",
				eng, firstM.Rounds, baseM.Rounds, agreeRounds)
		}
		if secondM.Rounds != agreeRounds {
			t.Errorf("%s: cache hit took %d rounds, want agreement-only %d", eng, secondM.Rounds, agreeRounds)
		}
	}
}

// TestResultCacheSeedMismatchRebuilds runs the cached construction under a
// different seed: the membership draws change, the collective agreement
// must detect the stale entry, and the run must rebuild — matching the
// uncached run of the new seed exactly.
func TestResultCacheSeedMismatchRebuilds(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	p := Params{X: 0.5}
	baseB, baseBM := computePipeline(t, g, p, nil, sim.EngineLegacy, 12)

	cached := Params{X: 0.5, Cache: NewResultCache()}
	computePipeline(t, g, cached, nil, sim.EngineLegacy, 11) // populate under seed 11
	gotB, rebuildM := computePipeline(t, g, cached, nil, sim.EngineLegacy, 12)
	if !reflect.DeepEqual(gotB, baseB) {
		t.Error("rebuild under new seed diverges from the uncached run of that seed")
	}
	if rebuildM.Rounds != baseBM.Rounds+2*sim.Log2Ceil(n) {
		t.Errorf("mismatch run took %d rounds, want full rebuild %d + agreement %d",
			rebuildM.Rounds, baseBM.Rounds, 2*sim.Log2Ceil(n))
	}
}

// TestResultCacheForceIncludeMismatchRebuilds flips one node's forceInclude
// bit (the γ = 0 single-source summoning) between runs: the per-node slot
// check must catch it even when the sampled membership happens to match.
func TestResultCacheForceIncludeMismatchRebuilds(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	force := make([]bool, n)
	force[3] = true

	cached := Params{X: 0.5, Cache: NewResultCache()}
	computePipeline(t, g, cached, nil, sim.EngineLegacy, 11)
	base, _ := computePipeline(t, g, Params{X: 0.5}, force, sim.EngineLegacy, 11)
	got, m := computePipeline(t, g, cached, force, sim.EngineLegacy, 11)
	if !reflect.DeepEqual(got, base) {
		t.Error("forceInclude rebuild diverges from the uncached run")
	}
	if !got[3].InSkeleton {
		t.Error("forced node missing from the rebuilt skeleton")
	}
	if hitRounds := 2 * sim.Log2Ceil(n); m.Rounds <= hitRounds {
		t.Errorf("forceInclude change bound cached state in %d rounds (agreement is %d)", m.Rounds, hitRounds)
	}
}

// TestResultCacheSnapshotRestore pins the persistence contract: a restored
// snapshot (round-tripped through gob, as the on-disk codec does) serves a
// warm run identically to the in-memory cache on every engine, and shape
// validation rejects snapshots for the wrong node count.
func TestResultCacheSnapshotRestore(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	cache := NewResultCache()
	cached := Params{X: 0.5, Cache: cache}
	computePipeline(t, g, cached, nil, sim.EngineLegacy, 11) // populate
	memOut, memM := computePipeline(t, g, cached, nil, sim.EngineLegacy, 11)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cache.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap CacheSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	for _, eng := range cacheEngines {
		restored := NewResultCache()
		if err := restored.Restore(snap, n); err != nil {
			t.Fatal(err)
		}
		out, m := computePipeline(t, g, Params{X: 0.5, Cache: restored}, nil, eng, 11)
		if !reflect.DeepEqual(out, memOut) {
			t.Errorf("%s: warm-disk skeleton differs from warm-memory", eng)
		}
		if m != memM {
			t.Errorf("%s: warm-disk metrics %+v differ from warm-memory %+v", eng, m, memM)
		}
	}

	if err := NewResultCache().Restore(snap, n+1); err == nil {
		t.Error("restoring a snapshot recorded for a different node count succeeded")
	}

	// A hop count beyond h is rejected, not truncated into the result.
	bad := snap.Entries[0]
	bad.NearHops = slices.Clone(bad.NearHops)
	for id, packed := range bad.NearIDs {
		if ids, _ := persist.UnpackSorted(packed); bad.Filled[id] && len(ids) > 0 {
			hops := make([]int64, len(ids))
			hops[0] = int64(bad.H) + 1
			bad.NearHops[id] = persist.PackInt64s(hops)
			break
		}
	}
	if err := NewResultCache().Restore(CacheSnapshot{Entries: []CacheEntrySnapshot{bad}}, n); err == nil {
		t.Error("restoring a snapshot with a hop count beyond h succeeded")
	}
}

// TestResultCacheEviction pins the FIFO bound: distinct keys beyond
// warm.MaxEntries evict the oldest entry, and a re-keyed construction
// after eviction rebuilds rather than binding stale state.
func TestResultCacheEviction(t *testing.T) {
	g := graph.Grid(5, 5)
	n := g.N()
	cache := NewResultCache()
	// Distinct MaxH values below the natural h produce distinct keys.
	for h := 1; h <= warm.MaxEntries+2; h++ {
		out, _ := computePipeline(t, g, Params{X: 0.5, MaxH: h, Cache: cache}, nil, sim.EngineLegacy, 11)
		if len(out) != n {
			t.Fatalf("h=%d: %d results", h, len(out))
		}
	}
	if got := cache.Len(); got > warm.MaxEntries {
		t.Fatalf("cache holds %d entries, cap %d", got, warm.MaxEntries)
	}
	// The first key was evicted: rerunning it must rebuild, not bind.
	_, baseM := computePipeline(t, g, Params{X: 0.5, MaxH: 1}, nil, sim.EngineLegacy, 11)
	_, m := computePipeline(t, g, Params{X: 0.5, MaxH: 1, Cache: cache}, nil, sim.EngineLegacy, 11)
	if m.Rounds != baseM.Rounds+2*sim.Log2Ceil(n) {
		t.Errorf("evicted key reran in %d rounds, want rebuild %d + agreement %d",
			m.Rounds, baseM.Rounds, 2*sim.Log2Ceil(n))
	}
}
