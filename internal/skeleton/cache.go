package skeleton

import (
	"fmt"

	"repro/internal/persist"
	"repro/internal/warm"
)

// ResultCache caches per-node skeleton construction results (Algorithm 6)
// across runs. A skeleton is a pure function of the graph, the seed, and
// the construction parameters: the sampled membership comes from the
// per-node random streams (which derive only from Config.Seed) and the
// exploration is deterministic flooding. When the same instance recurs —
// repeated facade calls on one Network, a warm-started CLI run — the h
// exploration rounds are replaced by warm.Guard's collective agreement and
// a zero-round bind. An entry records every node's forceInclude bit and
// sampled membership at creation, which is what the agreement compares, so
// a cache recorded under a different seed (or a stale file renamed into
// place) degrades to a rebuild, never to wrong results.
//
// The cached path always consumes the membership draw from the node's
// random stream before consulting the cache (see NewComputeMachine), so the per-node
// stream position after skeleton construction is identical on hits and
// misses. That keeps every later phase that draws randomness — helper
// sampling, dissemination destinations — byte-identical between warm and
// cold runs.
//
// Bound results are shared: callers must treat Result.Near of a cache-bound
// Result as immutable (every algorithm in this repository only reads it).
type ResultCache struct {
	*warm.Store[cacheKey, cacheEntry]
}

// NewResultCache returns an empty cache, ready to be shared by any number
// of sequential runs over the same graph and seed.
func NewResultCache() *ResultCache {
	return &ResultCache{warm.NewStore(cacheKey.label, newCacheEntry)}
}

// cacheKey is the globally known identity of a skeleton construction: the
// resolved sampling probability and exploration depth, which together fully
// determine ComputeMachine's behavior for a fixed graph and seed. (X and
// HFactor only act through these two values.)
type cacheKey struct {
	prob float64
	h    int
}

func keyOf(p Params, n int) cacheKey {
	return cacheKey{prob: p.SampleProb(n), h: p.H(n)}
}

func (key cacheKey) label() string { return fmt.Sprintf("skeleton h=%d p=%.4g", key.h, key.prob) }

// cacheEntry holds the cached per-node results, one slot per node.
type cacheEntry struct {
	filled []bool
	force  []bool
	inSkel []bool
	res    []Result
}

func newCacheEntry(n int) *cacheEntry {
	return &cacheEntry{
		filled: make([]bool, n),
		force:  make([]bool, n),
		inSkel: make([]bool, n),
		res:    make([]Result, n),
	}
}

// stale reports whether this node's slot is unfilled or was recorded under
// a different forceInclude bit or membership draw.
func (e *cacheEntry) stale(id int, force, inSkel bool) bool {
	return !e.filled[id] || e.force[id] != force || e.inSkel[id] != inSkel
}

// store records one node's freshly built result into its slot.
func (e *cacheEntry) store(id int, force bool, res Result) {
	e.force[id] = force
	e.inSkel[id] = res.InSkeleton
	e.res[id] = res
	e.filled[id] = true
}

// CacheSnapshot is the serializable image of a ResultCache, produced by
// Snapshot and consumed by Restore — part of the seed-dependent section of
// the v2 on-disk warm-start cache. Entries preserve insertion order so a
// restored cache keeps the same deterministic FIFO eviction sequence.
// Each node's Near list is stored as packed vectors (sorted delta-varint IDs
// plus varint distance and hop streams) instead of gob's reflected structs —
// the skeleton results are the largest genuinely per-node payload of the
// cache, and the packed form is both several times smaller and far cheaper
// to encode.
type CacheSnapshot struct {
	Entries []CacheEntrySnapshot
}

// CacheEntrySnapshot is one cached skeleton construction: its resolved key
// and every node's packed slot. NearIDs[id] packs the IDs of the node's
// Near list (persist.PackSorted); NearDists[id] and NearHops[id] pack the
// aligned distance and hop values (persist.PackInt64s).
type CacheEntrySnapshot struct {
	Prob      float64
	H         int
	Filled    []bool
	Force     []bool
	InSkel    []bool
	NearIDs   [][]byte
	NearDists [][]byte
	NearHops  [][]byte
}

// Snapshot captures the cache's current contents for persistence. The
// packed vectors are fresh copies, but bool slices are shared with the
// cache; callers must serialize the snapshot before the cache is used
// again.
func (c *ResultCache) Snapshot() CacheSnapshot {
	snap := CacheSnapshot{Entries: make([]CacheEntrySnapshot, 0, c.Len())}
	for key, e := range c.Each {
		n := len(e.filled)
		es := CacheEntrySnapshot{
			Prob:      key.prob,
			H:         key.h,
			Filled:    e.filled,
			Force:     e.force,
			InSkel:    e.inSkel,
			NearIDs:   make([][]byte, n),
			NearDists: make([][]byte, n),
			NearHops:  make([][]byte, n),
		}
		for id := 0; id < n; id++ {
			if !e.filled[id] {
				continue
			}
			near := e.res[id].Near
			ids := make([]int, len(near))
			dists := make([]int64, len(near))
			hops := make([]int64, len(near))
			for j, u := range near {
				ids[j], dists[j], hops[j] = int(u.ID), u.Dist, int64(u.Hops)
			}
			es.NearIDs[id] = persist.PackSorted(ids)
			es.NearDists[id] = persist.PackInt64s(dists)
			es.NearHops[id] = persist.PackInt64s(hops)
		}
		snap.Entries = append(snap.Entries, es)
	}
	return snap
}

// Restore replaces the cache's contents with a snapshot recorded for an
// n-node graph, validating shape and decoding the packed vectors.
// Restoring a snapshot recorded under a different seed is safe — the
// collective membership agreement degrades every stale entry to a rebuild
// — but restoring one from a different graph must be prevented by the
// caller (the facade keys cache files by graph fingerprint and seed).
func (c *ResultCache) Restore(snap CacheSnapshot, n int) error {
	entries := map[cacheKey]*cacheEntry{}
	order := make([]cacheKey, 0, len(snap.Entries))
	for i, es := range snap.Entries {
		if len(es.Filled) != n || len(es.Force) != n || len(es.InSkel) != n ||
			len(es.NearIDs) != n || len(es.NearDists) != n || len(es.NearHops) != n {
			return fmt.Errorf("skeleton: cache snapshot entry %d sized for %d nodes, want %d", i, len(es.Filled), n)
		}
		key := cacheKey{prob: es.Prob, h: es.H}
		if _, dup := entries[key]; dup {
			return fmt.Errorf("skeleton: cache snapshot has duplicate entry for h=%d p=%g", es.H, es.Prob)
		}
		e := newCacheEntry(n)
		copy(e.filled, es.Filled)
		copy(e.force, es.Force)
		copy(e.inSkel, es.InSkel)
		for id := 0; id < n; id++ {
			if !es.Filled[id] {
				continue
			}
			ids, err := persist.UnpackSorted(es.NearIDs[id])
			if err != nil {
				return fmt.Errorf("skeleton: cache snapshot entry %d node %d IDs: %w", i, id, err)
			}
			if len(ids) > 0 && ids[len(ids)-1] >= n {
				return fmt.Errorf("skeleton: cache snapshot entry %d node %d: ID %d out of range", i, id, ids[len(ids)-1])
			}
			dists, err := persist.UnpackInt64s(es.NearDists[id])
			if err != nil {
				return fmt.Errorf("skeleton: cache snapshot entry %d node %d dists: %w", i, id, err)
			}
			hops, err := persist.UnpackInt64s(es.NearHops[id])
			if err != nil {
				return fmt.Errorf("skeleton: cache snapshot entry %d node %d hops: %w", i, id, err)
			}
			if len(dists) != len(ids) || len(hops) != len(ids) {
				return fmt.Errorf("skeleton: cache snapshot entry %d node %d: %d IDs but %d/%d values",
					i, id, len(ids), len(dists), len(hops))
			}
			near := make([]Heard, len(ids))
			for j, u := range ids {
				if hops[j] < 0 || hops[j] > int64(es.H) {
					return fmt.Errorf("skeleton: cache snapshot entry %d node %d: source %d at %d hops, h = %d", i, id, u, hops[j], es.H)
				}
				near[j] = Heard{Dist: dists[j], ID: int32(u), Hops: int32(hops[j])}
			}
			e.res[id] = Result{InSkeleton: es.InSkel[id], H: es.H, Near: near}
		}
		entries[key] = e
		order = append(order, key)
	}
	c.Replace(order, entries)
	return nil
}
