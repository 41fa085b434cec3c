package helpers

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/flood"
	"repro/internal/persist"
	"repro/internal/sim"
	"repro/internal/warm"
)

// ClusterCache caches the seed-independent structure of Algorithm 1 across
// runs: the ruling set, every node's (ruler, distance) assignment, and the
// per-cluster member directories. The ruling-set elimination is the
// deterministic bitwise-ID algorithm of Lemma 2.1 and cluster formation is
// deterministic wave propagation, so for a fixed graph the whole structure
// is a pure function of µ — it does not depend on the seed, on W, or on
// any sampled state. That makes it the reusable core of a warm start: a
// run over the same graph with a *different* seed (or different W sets)
// can still skip the ruling set and cluster formation, and only re-learn
// the W membership of its cluster (a 2β-round flood) and re-sample helper
// memberships.
//
// There is no per-seed state for warm.Guard's collective agreement to
// compare, so a populated slot is the whole check. Phases 1-3 of Algorithm
// 1 consume no randomness, so skipping them leaves every node's rand-stream
// position unchanged — the helper sampling that follows draws identically
// on both paths, and results are byte-identical hit or miss.
//
// Bound member slices are shared between the cache and every Result bound
// from it; callers must treat Result.Members of a cache-bound Result as
// immutable (every algorithm in this repository only reads it).
type ClusterCache struct {
	*warm.Store[int, clusterEntry] // keyed by µ
}

// NewClusterCache returns an empty cache, ready to be shared by any number
// of sequential runs over the same graph.
func NewClusterCache() *ClusterCache {
	label := func(mu int) string { return fmt.Sprintf("clusters µ=%d", mu) }
	return &ClusterCache{warm.NewStore(label, newClusterEntry)}
}

// clusterEntry holds one µ's cached structure. The per-node slots (ruler,
// dist, filled) are only ever read and written by their own node; the
// member directory is shared across the cluster's nodes and guarded by
// dirLock because every member stores the (identical) list on a miss.
type clusterEntry struct {
	filled []bool
	ruler  []int32
	dist   []int32

	dirLock sync.Mutex
	members map[int][]int // ruler -> sorted member list, one shared copy
}

func newClusterEntry(n int) *clusterEntry {
	return &clusterEntry{
		filled:  make([]bool, n),
		ruler:   make([]int32, n),
		dist:    make([]int32, n),
		members: map[int][]int{},
	}
}

// store records one node's freshly built structure into its slot, sharing
// the member directory: the first member of each cluster to arrive
// installs its list, later members drop their (identical) copies.
func (e *clusterEntry) store(id int, res Result) {
	e.ruler[id] = int32(res.Ruler)
	e.dist[id] = int32(res.RulerDist)
	e.dirLock.Lock()
	if _, ok := e.members[res.Ruler]; !ok {
		e.members[res.Ruler] = res.Members
	}
	e.dirLock.Unlock()
	e.filled[id] = true
}

// bind returns this node's cached structure, consuming zero rounds. The
// members slice is shared with the cache and must not be mutated.
func (e *clusterEntry) bind(id int) (ruler, dist int, members []int) {
	ruler = int(e.ruler[id])
	e.dirLock.Lock()
	members = e.members[ruler]
	e.dirLock.Unlock()
	return ruler, int(e.dist[id]), members
}

// newWFlood floods W membership inside clusters for `rounds` rounds;
// afterwards its origins are the sorted W members of this node's cluster. It
// is the structural-hit replacement of phase 3: only W nodes inject records
// (the member list itself is cached), propagation is the same
// own-cluster-only forwarding over the same subgraph for the same 2β rounds,
// so it reaches exactly the nodes the member flood would and the resulting
// WMembers list is byte-identical to the cold one.
func newWFlood(env *sim.Env, inW bool, ruler int, rounds int) *flood.State[struct{}] {
	w := &flood.State[struct{}]{}
	w.Start(env, env.N(), ruler, rounds, recWords, nil)
	if inW {
		w.Inject(env.ID(), struct{}{})
	}
	return w
}

// ClusterSnapshot is the serializable image of a ClusterCache — the
// seed-independent "structural section" of the on-disk warm-start cache.
// Entries preserve insertion order so a restored cache keeps the same
// deterministic FIFO eviction sequence. Member directories are stored once
// per cluster as packed sorted ID vectors; per-node slots hold only the
// ruler reference and distance.
type ClusterSnapshot struct {
	Entries []ClusterEntrySnapshot
}

// ClusterEntrySnapshot is one µ's cached structure.
type ClusterEntrySnapshot struct {
	Mu     int
	Filled []bool
	Ruler  []int32
	Dist   []int32
	// Rulers lists the cluster rulers with a stored directory, sorted;
	// Members[i] is the packed (persist.PackSorted) member list of
	// Rulers[i].
	Rulers  []int
	Members [][]byte
}

// Snapshot captures the cache's current contents for persistence. The
// packed member vectors are fresh copies; the snapshot is safe to
// serialize at any point between runs.
func (c *ClusterCache) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{Entries: make([]ClusterEntrySnapshot, 0, c.Len())}
	for mu, e := range c.Each {
		es := ClusterEntrySnapshot{
			Mu:     mu,
			Filled: e.filled,
			Ruler:  e.ruler,
			Dist:   e.dist,
		}
		e.dirLock.Lock()
		es.Rulers = make([]int, 0, len(e.members))
		for r := range e.members {
			es.Rulers = append(es.Rulers, r)
		}
		sort.Ints(es.Rulers)
		es.Members = make([][]byte, len(es.Rulers))
		for i, r := range es.Rulers {
			es.Members[i] = persist.PackSorted(e.members[r])
		}
		e.dirLock.Unlock()
		snap.Entries = append(snap.Entries, es)
	}
	return snap
}

// Restore replaces the cache's contents with a snapshot recorded for an
// n-node graph, validating shape and decoding the packed directories. A
// snapshot from a different graph must be prevented by the caller (the
// facade keys the structural cache file by graph fingerprint); within the
// same graph the structure is seed-independent, which is exactly what
// makes restoring it under a new seed a valid partial warm start.
func (c *ClusterCache) Restore(snap ClusterSnapshot, n int) error {
	entries := map[int]*clusterEntry{}
	order := make([]int, 0, len(snap.Entries))
	for i, es := range snap.Entries {
		if len(es.Filled) != n || len(es.Ruler) != n || len(es.Dist) != n {
			return fmt.Errorf("helpers: cluster snapshot entry %d sized for %d nodes, want %d", i, len(es.Filled), n)
		}
		if len(es.Members) != len(es.Rulers) {
			return fmt.Errorf("helpers: cluster snapshot entry %d has %d directories for %d rulers", i, len(es.Members), len(es.Rulers))
		}
		if _, dup := entries[es.Mu]; dup {
			return fmt.Errorf("helpers: cluster snapshot has duplicate entry for µ=%d", es.Mu)
		}
		e := newClusterEntry(n)
		copy(e.filled, es.Filled)
		copy(e.ruler, es.Ruler)
		copy(e.dist, es.Dist)
		for j, r := range es.Rulers {
			members, err := persist.UnpackSorted(es.Members[j])
			if err != nil {
				return fmt.Errorf("helpers: cluster snapshot entry %d ruler %d: %w", i, r, err)
			}
			if len(members) > 0 && members[len(members)-1] >= n {
				return fmt.Errorf("helpers: cluster snapshot entry %d ruler %d: member %d out of range", i, r, members[len(members)-1])
			}
			e.members[r] = members
		}
		// Every populated slot must resolve to a stored directory, or a
		// structural hit would bind a nil member list.
		for id := 0; id < n; id++ {
			if es.Filled[id] {
				if _, ok := e.members[int(es.Ruler[id])]; !ok {
					return fmt.Errorf("helpers: cluster snapshot entry %d: node %d references ruler %d with no directory", i, id, es.Ruler[id])
				}
			}
		}
		entries[es.Mu] = e
		order = append(order, es.Mu)
	}
	c.Replace(order, entries)
	return nil
}

// Structure returns the cached per-node view (ruler, dist, members) for
// one populated slot of one µ entry, for the routing snapshot to resolve
// its dedup references against. It returns ok=false when the entry, the
// slot, or the directory is missing — a dangling reference. The members
// slice is shared with the cache and must not be mutated.
func (c *ClusterCache) Structure(mu, id int) (ruler, dist int, members []int, ok bool) {
	e := c.Lookup(mu)
	if e == nil || id < 0 || id >= len(e.filled) || !e.filled[id] {
		return 0, 0, nil, false
	}
	ruler, dist, members = e.bind(id)
	return ruler, dist, members, members != nil
}
