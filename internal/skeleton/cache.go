package skeleton

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/persist"
	"repro/internal/sim"
)

// ResultCache caches per-node skeleton construction results (Algorithm 6)
// across runs. A skeleton is a pure function of the graph, the seed, and
// the construction parameters: the sampled membership comes from the
// per-node random streams (which derive only from Config.Seed) and the
// exploration is deterministic flooding. When the same instance recurs —
// repeated facade calls on one Network, a warm-started CLI run — the h
// exploration rounds can be replaced by one collective agreement.
//
// Correctness is collective, exactly like routing.SessionCache: an entry
// records every node's forceInclude bit and sampled membership at creation,
// and the cached path first runs one global max-aggregation
// (2·ceil(log2 n) rounds, Lemma B.2) in which each node reports whether its
// own slot still matches. Only a unanimous match binds the cached results;
// any mismatch rebuilds the skeleton from scratch (and re-caches it). Every
// node therefore takes the same branch on every engine, and the cache never
// changes results — only the number of construction rounds.
//
// The cached path always consumes the membership draw from the node's
// random stream before consulting the cache (see NewComputeMachine), so the per-node
// stream position after skeleton construction is identical on hits and
// misses. That keeps every later phase that draws randomness — helper
// sampling, dissemination destinations — byte-identical between warm and
// cold runs.
//
// Bound results are shared: callers must treat Result.Near / NearHops of a
// cache-bound Result as immutable (every algorithm in this repository only
// reads them).
type ResultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	order   []cacheKey // insertion order, for deterministic FIFO eviction
	trace   func(event string)
}

// maxResultEntries bounds the cache: one entry holds every node's Near /
// NearHops maps. Eviction is FIFO on insertion order — deterministic, so
// repeated seeded runs keep identical hit/miss sequences and therefore
// identical round counts.
const maxResultEntries = 16

// NewResultCache returns an empty cache, ready to be shared by any number
// of sequential runs over the same graph and seed.
func NewResultCache() *ResultCache {
	return &ResultCache{entries: map[cacheKey]*cacheEntry{}}
}

// SetTrace installs a cache-event hook: fn is invoked (at node 0 only) with
// one line per collective agreement, saying whether the run hit or rebuilt.
// The sequence is engine-independent; the golden round-trace test pins it.
func (c *ResultCache) SetTrace(fn func(event string)) { c.trace = fn }

// cacheKey is the globally known identity of a skeleton construction: the
// resolved sampling probability and exploration depth, which together fully
// determine ComputeMachine's behavior for a fixed graph and seed. (X, HFactor and
// MaxH only act through these two values.)
type cacheKey struct {
	prob float64
	h    int
}

func keyOf(p Params, n int) cacheKey {
	return cacheKey{prob: p.SampleProb(n), h: p.H(n)}
}

// cacheEntry holds the cached per-node results. Each node only ever reads
// and writes its own index, so slot access needs no lock: the engines'
// round barriers (within a run) and the run's return (across runs) order
// every write before every later read.
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

func (c *ResultCache) lookup(key cacheKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// shared returns the run-shared entry being (re)populated for key, creating
// it and installing it into the cache exactly once per run (env.SharedOnce
// guarantees all nodes of the run store into the same object).
func (c *ResultCache) shared(env *sim.Env, key cacheKey) *cacheEntry {
	v := env.SharedOnce("skeleton.ResultCache", func() interface{} {
		e := newCacheEntry(env.N())
		c.mu.Lock()
		if _, exists := c.entries[key]; !exists {
			if len(c.order) >= maxResultEntries {
				oldest := c.order[0]
				c.order = c.order[1:]
				delete(c.entries, oldest)
			}
			c.order = append(c.order, key)
		}
		c.entries[key] = e
		c.mu.Unlock()
		return e
	})
	return v.(*cacheEntry)
}

// mismatch reports whether this node's slot of entry fails to match its
// current membership draw (1) or matches (0); a nil or unfilled entry
// always mismatches. The value feeds the collective max-aggregation. The
// freshly sampled membership is part of the check, so a cache recorded
// under a different seed (or a stale file renamed into place) degrades to a
// rebuild, never to wrong results.
func (e *cacheEntry) mismatch(id int, force, inSkel bool) int64 {
	if e == nil || !e.filled[id] || e.force[id] != force || e.inSkel[id] != inSkel {
		return 1
	}
	return 0
}

// store records one node's freshly built result into its slot.
func (e *cacheEntry) store(id int, force bool, res Result) {
	e.force[id] = force
	e.inSkel[id] = res.InSkeleton
	e.res[id] = res
	e.filled[id] = true
}

// bind returns this node's cached result, consuming zero rounds. The maps
// are shared with the cache and must not be mutated.
func (e *cacheEntry) bind(id int) Result { return e.res[id] }

// traceEvent records one collective agreement outcome (node 0 only, so the
// trace is a single global sequence).
func (c *ResultCache) traceEvent(env *sim.Env, key cacheKey, hit bool) {
	if c.trace == nil || env.ID() != 0 {
		return
	}
	verdict := "rebuild"
	if hit {
		verdict = "hit"
	}
	c.trace(fmt.Sprintf("skeleton h=%d p=%.4g: %s", key.h, key.prob, verdict))
}

// CacheSnapshot is the serializable image of a ResultCache, produced by
// Snapshot and consumed by Restore — part of the seed-dependent section of
// the v2 on-disk warm-start cache. Entries preserve insertion order so a
// restored cache keeps the same deterministic FIFO eviction sequence.
// Per-node Near/NearHops maps are stored as packed vectors (sorted
// delta-varint IDs plus varint distance and hop streams) instead of gob's
// reflected maps — the skeleton results are the largest genuinely per-node
// payload of the cache, and the packed form is both several times smaller
// and far cheaper to encode.
type CacheSnapshot struct {
	Entries []CacheEntrySnapshot
}

// CacheEntrySnapshot is one cached skeleton construction: its resolved key
// and every node's packed slot. NearIDs[id] packs the sorted keys of the
// node's Near map (persist.PackSorted); NearDists[id] and NearHops[id]
// pack the aligned distance and hop values (persist.PackInt64s).
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
func (c *ResultCache) Snapshot() (CacheSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CacheSnapshot{Entries: make([]CacheEntrySnapshot, 0, len(c.order))}
	for _, key := range c.order {
		e := c.entries[key]
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
			res := e.res[id]
			ids := make([]int, 0, len(res.Near))
			for u := range res.Near {
				ids = append(ids, u)
			}
			sort.Ints(ids)
			dists := make([]int64, len(ids))
			hops := make([]int64, len(ids))
			for j, u := range ids {
				dists[j] = res.Near[u]
				hop, ok := res.NearHops[u]
				if !ok {
					return CacheSnapshot{}, fmt.Errorf("skeleton: snapshot: node %d has %d in Near but not NearHops", id, u)
				}
				hops[j] = int64(hop)
			}
			es.NearIDs[id] = persist.PackSorted(ids)
			es.NearDists[id] = persist.PackInt64s(dists)
			es.NearHops[id] = persist.PackInt64s(hops)
		}
		snap.Entries = append(snap.Entries, es)
	}
	return snap, nil
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
			near := make(map[int]int64, len(ids))
			nearHops := make(map[int]int, len(ids))
			for j, u := range ids {
				near[u] = dists[j]
				nearHops[u] = int(hops[j])
			}
			e.res[id] = Result{InSkeleton: es.InSkel[id], H: es.H, Near: near, NearHops: nearHops}
		}
		entries[key] = e
		order = append(order, key)
	}
	c.mu.Lock()
	c.entries = entries
	c.order = order
	c.mu.Unlock()
	return nil
}

// Len reports the number of cached entries (for tests and diagnostics).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
