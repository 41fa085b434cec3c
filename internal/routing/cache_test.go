package routing

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/helpers"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/warm"
)

// routePipeline runs one full routing instance on eng and returns the
// delivered tokens and metrics.
func routePipeline(t *testing.T, g *graph.Graph, specs []Spec, eng sim.Engine, p Params) ([][]Token, sim.Metrics) {
	t.Helper()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: 9, Engine: eng}, Pipeline(specs, p))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// TestSessionCacheReuseAcrossRuns pins the cache contract on every engine:
// the first cached run pays exactly the 2·ceil(log2 n)-round agreement on
// top of the uncached setup, a repeat run with identical membership reuses
// the session (strictly fewer rounds), and neither changes any delivered
// token.
func TestSessionCacheReuseAcrossRuns(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	specs := buildInstance(n, 0.4, 0.4, 2, 5)
	if err := Validate(specs); err != nil {
		t.Fatal(err)
	}
	base, baseM := routePipeline(t, g, specs, sim.EngineLegacy, Params{})
	agreeRounds := 2 * sim.Log2Ceil(n)

	for _, eng := range simtest.Engines {
		cache := NewSessionCache()
		p := Params{Cache: cache}
		first, firstM := routePipeline(t, g, specs, eng, p)
		second, secondM := routePipeline(t, g, specs, eng, p)
		if !reflect.DeepEqual(first, base) || !reflect.DeepEqual(second, base) {
			t.Errorf("%s: cached runs deliver different tokens than uncached", eng)
		}
		if firstM.Rounds != baseM.Rounds+agreeRounds {
			t.Errorf("%s: first cached run took %d rounds, want uncached %d + agreement %d",
				eng, firstM.Rounds, baseM.Rounds, agreeRounds)
		}
		if secondM.Rounds >= firstM.Rounds {
			t.Errorf("%s: cache hit saved nothing: %d rounds vs %d", eng, secondM.Rounds, firstM.Rounds)
		}
	}
}

// TestSessionCacheMembershipMismatchRebuilds changes one node's membership
// between runs while keeping every globally known parameter identical: the
// collective agreement must detect the stale entry and rebuild (full setup
// cost again), and delivery must stay correct.
func TestSessionCacheMembershipMismatchRebuilds(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	specs := buildInstance(n, 0.4, 0.4, 2, 5)

	// A second instance with the same key but one more node in S (a sender
	// with no tokens is legal), so exactly one node's slot mismatches.
	specsB := make([]Spec, n)
	copy(specsB, specs)
	extra := -1
	for v := range specsB {
		if !specsB[v].InS {
			extra = v
			break
		}
	}
	if extra < 0 {
		t.Skip("instance saturated S")
	}
	specsB[extra].InS = true

	_, baseBM := routePipeline(t, g, specsB, sim.EngineLegacy, Params{})
	agreeRounds := 2 * sim.Log2Ceil(n)

	cache := NewSessionCache()
	p := Params{Cache: cache}
	routePipeline(t, g, specs, sim.EngineLegacy, p) // populate
	gotB, rebuildM := routePipeline(t, g, specsB, sim.EngineLegacy, p)
	if rebuildM.Rounds != baseBM.Rounds+agreeRounds {
		t.Errorf("mismatch run took %d rounds, want full rebuild %d + agreement %d",
			rebuildM.Rounds, baseBM.Rounds, agreeRounds)
	}
	for v := range specsB {
		if len(gotB[v]) != len(specsB[v].Expect) {
			t.Fatalf("node %d received %d tokens after rebuild, want %d", v, len(gotB[v]), len(specsB[v].Expect))
		}
	}

	// And the rebuilt entry serves the new membership on the next run.
	_, hitM := routePipeline(t, g, specsB, sim.EngineLegacy, p)
	if hitM.Rounds >= rebuildM.Rounds {
		t.Errorf("post-rebuild hit saved nothing: %d vs %d rounds", hitM.Rounds, rebuildM.Rounds)
	}
}

// TestSessionCacheEviction pins the FIFO bound: distinct keys beyond
// warm.MaxEntries evict the oldest entry (routing still correct), and a
// re-keyed construction after eviction rebuilds rather than binding stale
// state.
func TestSessionCacheEviction(t *testing.T) {
	g := graph.Grid(5, 5)
	n := g.N()
	specs := buildInstance(n, 0.5, 0.5, 1, 3)
	cache := NewSessionCache()

	// Distinct HashKFactor values produce distinct keys.
	for hk := 1; hk <= warm.MaxEntries+2; hk++ {
		p := Params{Cache: cache, HashKFactor: hk}
		out, _ := routePipeline(t, g, specs, sim.EngineLegacy, p)
		for v := range specs {
			if len(out[v]) != len(specs[v].Expect) {
				t.Fatalf("hk=%d: node %d received %d tokens, want %d", hk, v, len(out[v]), len(specs[v].Expect))
			}
		}
	}
	if got := cache.Len(); got > warm.MaxEntries {
		t.Fatalf("cache holds %d entries, cap %d", got, warm.MaxEntries)
	}
	// The first key was evicted: rerunning it must rebuild (uncached
	// rounds + agreement), not bind stale state, and still deliver.
	_, baseM := routePipeline(t, g, specs, sim.EngineLegacy, Params{HashKFactor: 1})
	out, m := routePipeline(t, g, specs, sim.EngineLegacy, Params{Cache: cache, HashKFactor: 1})
	if m.Rounds != baseM.Rounds+2*sim.Log2Ceil(n) {
		t.Errorf("evicted key reran in %d rounds, want rebuild %d + agreement %d",
			m.Rounds, baseM.Rounds, 2*sim.Log2Ceil(n))
	}
	for v := range specs {
		if len(out[v]) != len(specs[v].Expect) {
			t.Fatalf("post-eviction node %d received %d tokens, want %d", v, len(out[v]), len(specs[v].Expect))
		}
	}
}

// TestSessionCacheSnapshotRestore pins the persistence contract at package
// level: a restored snapshot serves a warm run with exactly the same round
// count as an in-memory hit and byte-identical tokens, on every engine —
// and the snapshot survives the gob codec the persist package uses. The
// v2 snapshot is deduplicated against the cluster cache, so the test
// threads a helpers.ClusterCache through the runs and round-trips its
// snapshot alongside.
func TestSessionCacheSnapshotRestore(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	specs := buildInstance(n, 0.4, 0.4, 2, 5)

	cache := NewSessionCache()
	clusters := helpers.NewClusterCache()
	params := Params{Cache: cache, Helpers: helpers.Params{Clusters: clusters}}
	routePipeline(t, g, specs, sim.EngineLegacy, params) // populate
	memOut, memM := routePipeline(t, g, specs, sim.EngineLegacy, params)

	// Round-trip both snapshots through gob, as the on-disk codec does.
	sessSnap, err := cache.Snapshot(clusters)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(sessSnap); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(clusters.Snapshot()); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
	var snap CacheSnapshot
	var clusterSnap helpers.ClusterSnapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&clusterSnap); err != nil {
		t.Fatal(err)
	}

	for _, eng := range simtest.Engines {
		restoredClusters := helpers.NewClusterCache()
		if err := restoredClusters.Restore(clusterSnap, n); err != nil {
			t.Fatal(err)
		}
		restored := NewSessionCache()
		if err := restored.Restore(snap, n, restoredClusters); err != nil {
			t.Fatal(err)
		}
		out, m := routePipeline(t, g, specs, eng, Params{Cache: restored, Helpers: helpers.Params{Clusters: restoredClusters}})
		if !reflect.DeepEqual(out, memOut) {
			t.Errorf("%s: warm-disk run delivers different tokens than warm-memory", eng)
		}
		if m != memM {
			t.Errorf("%s: warm-disk metrics %+v differ from warm-memory %+v", eng, m, memM)
		}
	}

	// Shape validation: a snapshot for the wrong n is rejected.
	if err := NewSessionCache().Restore(snap, n+1, clusters); err == nil {
		t.Error("restoring a snapshot recorded for a different node count succeeded")
	}

	// Dangling dedup references are rejected: a session snapshot resolved
	// against an empty cluster cache has nothing to attach its members to.
	if err := NewSessionCache().Restore(snap, n, helpers.NewClusterCache()); err == nil {
		t.Error("restoring against an empty cluster cache succeeded")
	}
}

// TestSnapshotOmitsDanglingSessions pins the eviction-skew guard: the
// session and cluster caches evict independently, so a live session whose
// µ entries are gone from the cluster cache must be omitted from the
// snapshot — writing it would produce a file set every later load rejects
// wholesale.
func TestSnapshotOmitsDanglingSessions(t *testing.T) {
	g := graph.Grid(7, 7)
	n := g.N()
	specs := buildInstance(n, 0.4, 0.4, 2, 5)

	cache := NewSessionCache()
	clusters := helpers.NewClusterCache()
	routePipeline(t, g, specs, sim.EngineLegacy, Params{Cache: cache, Helpers: helpers.Params{Clusters: clusters}})

	full, err := cache.Snapshot(clusters)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Entries) == 0 {
		t.Fatal("populated cache snapshotted empty")
	}

	// Against an empty cluster cache every session dangles: all entries
	// must be dropped, and the result must still restore cleanly.
	empty := helpers.NewClusterCache()
	filtered, err := cache.Snapshot(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Entries) != 0 {
		t.Errorf("snapshot kept %d entries with no structural cache to resolve them", len(filtered.Entries))
	}
	if err := NewSessionCache().Restore(filtered, n, empty); err != nil {
		t.Errorf("filtered snapshot does not restore: %v", err)
	}
	if _, err := cache.Snapshot(nil); err != nil {
		t.Errorf("nil cluster cache: %v", err)
	}
}
