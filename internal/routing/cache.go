package routing

import (
	"fmt"
	"sort"

	"repro/internal/bitrand"
	"repro/internal/helpers"
	"repro/internal/persist"
	"repro/internal/sim"
	"repro/internal/warm"
)

// SessionCache caches the token-independent session state — the helper
// families of Algorithm 1, the cluster-local helper directories, and the
// shared intermediate-choosing hash — across session constructions: when
// the same sender/receiver sets recur (repeated facade calls on one
// Network, experiment sweeps, the per-phase sessions of a pipeline) the
// setup rounds are paid once. An entry records every node's (inS, inR)
// membership at creation, which is what warm.Guard's collective agreement
// compares; a hit binds in zero rounds.
type SessionCache struct {
	*warm.Store[SessionKeySnapshot, sessionEntry]
}

// NewSessionCache returns an empty cache, ready to be shared by any number
// of sequential runs over the same node set.
func NewSessionCache() *SessionCache {
	return &SessionCache{warm.NewStore(SessionKeySnapshot.label, newSessionEntry)}
}

// SessionKeySnapshot is the globally known part of a session's identity,
// in memory and on disk. The per-node membership bits are checked
// separately (collectively) because no single node knows the full S and R
// sets.
type SessionKeySnapshot struct {
	KS, KR      int
	PS, PR      float64
	MuS, MuR    int
	HashKFactor int
	QBoost      int
}

func keyOf(p Params, kS, kR int, pS, pR float64, muS, muR int) SessionKeySnapshot {
	return SessionKeySnapshot{
		KS: kS, KR: kR, PS: pS, PR: pR, MuS: muS, MuR: muR,
		HashKFactor: p.HashKFactor, QBoost: p.Helpers.QBoost,
	}
}

func (key SessionKeySnapshot) label() string {
	return fmt.Sprintf("session kS=%d kR=%d µS=%d µR=%d", key.KS, key.KR, key.MuS, key.MuR)
}

// familySnap is one node's cached view of one helper family. The maps and
// slices are shared read-only between the entry and every Session bound
// from it; the per-Route flood scratch is each bound Session's own.
type familySnap struct {
	res        helpers.Result
	helperSets map[int][]int
	myOwners   []int
}

// sessionEntry holds the cached per-node session state, one slot per node.
type sessionEntry struct {
	filled []bool
	inS    []bool
	inR    []bool
	famS   []familySnap
	famR   []familySnap
	hash   []*bitrand.KWiseHash
}

func newSessionEntry(n int) *sessionEntry {
	return &sessionEntry{
		filled: make([]bool, n),
		inS:    make([]bool, n),
		inR:    make([]bool, n),
		famS:   make([]familySnap, n),
		famR:   make([]familySnap, n),
		hash:   make([]*bitrand.KWiseHash, n),
	}
}

// stale reports whether this node's slot is unfilled or was recorded under
// a different membership.
func (e *sessionEntry) stale(id int, inS, inR bool) bool {
	return !e.filled[id] || e.inS[id] != inS || e.inR[id] != inR
}

// store records one node's freshly built session state into its slot.
func (e *sessionEntry) store(id int, inS, inR bool, s *Session) {
	e.inS[id], e.inR[id] = inS, inR
	e.famS[id] = familySnap{res: s.famS.res, helperSets: s.famS.helperSets, myOwners: s.famS.myOwners}
	e.famR[id] = familySnap{res: s.famR.res, helperSets: s.famR.helperSets, myOwners: s.famR.myOwners}
	e.hash[id] = s.hash
	e.filled[id] = true
}

// bind constructs a ready Session from this node's cached slot, consuming
// zero rounds. The per-instance scratch (per-owner item maps, intermediate
// store, reply queue) starts fresh; everything token-independent is
// shared.
func (e *sessionEntry) bind(env *sim.Env, muS, muR int, p Params) *Session {
	id := env.ID()
	return &Session{
		env:    env,
		params: p,
		famS:   family{res: e.famS[id].res, mu: muS, helperSets: e.famS[id].helperSets, myOwners: e.famS[id].myOwners},
		famR:   family{res: e.famR[id].res, mu: muR, helperSets: e.famR[id].helperSets, myOwners: e.famR[id].myOwners},
		hash:   e.hash[id],
	}
}

// CacheSnapshot is the serializable image of a SessionCache, produced by
// Snapshot and consumed by Restore — the seed-dependent "session section"
// of the v2 on-disk warm-start cache. Entries preserve insertion order so
// a restored cache keeps the same deterministic FIFO eviction sequence.
//
// The layout is deduplicated: data that Algorithm 1 makes identical across
// every member of a cluster — the W membership and the cluster-local
// helper directory — is stored once per ruler instead of once per node,
// the broadcast hash seed is stored once per entry instead of once per
// node, and the cluster structure itself (ruler assignment, member
// directories) is not stored at all: it is seed-independent, lives in the
// structural section (helpers.ClusterSnapshot), and is re-attached by
// reference on Restore. MyOwners is recomputed from the directory. A v1
// snapshot stored all of this per node, which multiplied every shared
// structure by the cluster size (~244 MB at n=4096).
type CacheSnapshot struct {
	Entries []SessionEntrySnapshot
}

// FamilySnapshot is one helper family of one cached session, deduplicated
// per cluster. Rulers lists the clusters that have members among the
// filled slots, in first-seen node order; WMembers, HelperOwners and
// HelperSets are parallel to it. All ID vectors are packed with
// persist.PackSorted.
type FamilySnapshot struct {
	// Rulers lists the cluster rulers with stored per-cluster data.
	Rulers []int
	// WMembers[i] is the packed sorted W membership of Rulers[i]'s cluster.
	WMembers [][]byte
	// HelperOwners[i] packs the sorted owner IDs (the w of each H_w) of
	// Rulers[i]'s helper directory; HelperSets[i][j] packs the sorted
	// helper set of the j-th owner.
	HelperOwners [][]byte
	HelperSets   [][][]byte
	// Helps[id] packs the owners node id helps (per-node data; nil for
	// unfilled slots).
	Helps [][]byte
}

// SessionEntrySnapshot is one cached session: its key, the per-node
// membership bits, the (single, broadcast-shared) hash seed, and the two
// deduplicated families.
type SessionEntrySnapshot struct {
	Key      SessionKeySnapshot
	Filled   []bool
	InS, InR []bool
	// HashSeed holds the k-wise hash coefficients. Node 0 draws the seed
	// and broadcasts it during session construction, so every node's hash
	// is identical — one copy serves all slots.
	HashSeed []uint64
	FamS     FamilySnapshot
	FamR     FamilySnapshot
}

// Snapshot captures the cache's current contents for persistence,
// deduplicating per-cluster state against the structural cluster cache
// the snapshot's references will later be resolved with. Entries whose
// structural dependencies are not (or no longer) present in clusters —
// the two 16-entry caches evict independently, so a wide parameter sweep
// can outlive a session's µ entries — are silently omitted: a session
// that cannot be restored must not be written, or the file set would be
// rejected wholesale on every later load. The packed vectors are fresh
// copies, but bool slices are shared with the cache; callers must
// serialize the snapshot before the cache is used again.
func (c *SessionCache) Snapshot(clusters *helpers.ClusterCache) (CacheSnapshot, error) {
	snap := CacheSnapshot{Entries: make([]SessionEntrySnapshot, 0, c.Len())}
	for key, e := range c.Each {
		if !snapshotResolvable(e, key, clusters) {
			continue
		}
		es := SessionEntrySnapshot{Key: key, Filled: e.filled, InS: e.inS, InR: e.inR}
		for id := range e.filled {
			if e.filled[id] {
				if e.hash[id] == nil {
					return CacheSnapshot{}, fmt.Errorf("routing: snapshot: node %d filled but has no hash", id)
				}
				es.HashSeed = e.hash[id].Seed()
				break
			}
		}
		es.FamS = snapshotFamily(e.famS, e.filled)
		es.FamR = snapshotFamily(e.famR, e.filled)
		snap.Entries = append(snap.Entries, es)
	}
	return snap, nil
}

// snapshotResolvable reports whether every filled slot of e can be
// re-attached from clusters on restore: the µ entries exist, each node's
// slot is populated, and the structural ruler agrees with the one the
// session was built under (both are deterministic, so a disagreement
// means the structural entry is not this session's).
func snapshotResolvable(e *sessionEntry, key SessionKeySnapshot, clusters *helpers.ClusterCache) bool {
	if clusters == nil {
		return false
	}
	for id, filled := range e.filled {
		if !filled {
			continue
		}
		for _, fam := range []struct {
			mu    int
			ruler int
		}{{key.MuS, e.famS[id].res.Ruler}, {key.MuR, e.famR[id].res.Ruler}} {
			ruler, _, _, ok := clusters.Structure(fam.mu, id)
			if !ok || ruler != fam.ruler {
				return false
			}
		}
	}
	return true
}

// snapshotFamily dedups one family's per-node slots into the per-cluster
// layout: the first filled member of each cluster contributes the shared
// W membership and helper directory (identical at every member by
// construction — cluster-local flooding), every filled node contributes
// only its own Helps list.
func snapshotFamily(fams []familySnap, filled []bool) FamilySnapshot {
	fs := FamilySnapshot{Helps: make([][]byte, len(fams))}
	seen := map[int]bool{}
	for id, f := range fams {
		if !filled[id] {
			continue
		}
		ruler := f.res.Ruler
		if !seen[ruler] {
			seen[ruler] = true
			fs.Rulers = append(fs.Rulers, ruler)
			fs.WMembers = append(fs.WMembers, persist.PackSorted(f.res.WMembers))
			owners := make([]int, 0, len(f.helperSets))
			for w := range f.helperSets {
				owners = append(owners, w)
			}
			sort.Ints(owners)
			sets := make([][]byte, len(owners))
			for j, w := range owners {
				sets[j] = persist.PackSorted(f.helperSets[w])
			}
			fs.HelperOwners = append(fs.HelperOwners, persist.PackSorted(owners))
			fs.HelperSets = append(fs.HelperSets, sets)
		}
		fs.Helps[id] = persist.PackSorted(f.res.Helps)
	}
	return fs
}

// familyDir is one decoded per-cluster record of a FamilySnapshot.
type familyDir struct {
	wMembers   []int
	helperSets map[int][]int
}

// decodeFamily unpacks a FamilySnapshot's per-cluster tables, validating
// IDs against n.
func decodeFamily(fs FamilySnapshot, n int) (map[int]*familyDir, error) {
	if len(fs.WMembers) != len(fs.Rulers) || len(fs.HelperOwners) != len(fs.Rulers) || len(fs.HelperSets) != len(fs.Rulers) {
		return nil, fmt.Errorf("routing: family snapshot has %d rulers but %d/%d/%d tables",
			len(fs.Rulers), len(fs.WMembers), len(fs.HelperOwners), len(fs.HelperSets))
	}
	dirs := make(map[int]*familyDir, len(fs.Rulers))
	for i, ruler := range fs.Rulers {
		if _, dup := dirs[ruler]; dup {
			return nil, fmt.Errorf("routing: family snapshot has duplicate ruler %d", ruler)
		}
		wm, err := unpackIDs(fs.WMembers[i], n)
		if err != nil {
			return nil, fmt.Errorf("routing: family snapshot ruler %d W members: %w", ruler, err)
		}
		owners, err := unpackIDs(fs.HelperOwners[i], n)
		if err != nil {
			return nil, fmt.Errorf("routing: family snapshot ruler %d owners: %w", ruler, err)
		}
		if len(fs.HelperSets[i]) != len(owners) {
			return nil, fmt.Errorf("routing: family snapshot ruler %d has %d helper sets for %d owners",
				ruler, len(fs.HelperSets[i]), len(owners))
		}
		sets := make(map[int][]int, len(owners))
		for j, w := range owners {
			hs, err := unpackIDs(fs.HelperSets[i][j], n)
			if err != nil {
				return nil, fmt.Errorf("routing: family snapshot ruler %d H_%d: %w", ruler, w, err)
			}
			sets[w] = hs
		}
		dirs[ruler] = &familyDir{wMembers: wm, helperSets: sets}
	}
	return dirs, nil
}

// unpackIDs decodes a packed sorted ID vector and range-checks it.
func unpackIDs(data []byte, n int) ([]int, error) {
	ids, err := persist.UnpackSorted(data)
	if err != nil {
		return nil, err
	}
	if len(ids) > 0 && ids[len(ids)-1] >= n {
		return nil, fmt.Errorf("node ID %d out of range (n=%d)", ids[len(ids)-1], n)
	}
	return ids, nil
}

// Restore replaces the cache's contents with a snapshot recorded for an
// n-node graph, resolving the deduplicated cluster references against the
// structural cache (which the caller must have restored first). A dangling
// reference — a session slot whose µ entry, ruler slot, or cluster
// directory is missing from clusters — is an error, and the caller treats
// it as a cold start. Restoring a snapshot recorded under a different seed
// is safe — the collective membership agreement degrades every stale entry
// to a rebuild — but restoring one from a different graph must be
// prevented by the caller (the facade keys cache files by graph
// fingerprint and seed).
func (c *SessionCache) Restore(snap CacheSnapshot, n int, clusters *helpers.ClusterCache) error {
	if clusters == nil && len(snap.Entries) > 0 {
		return fmt.Errorf("routing: cache snapshot needs a structural cluster cache to resolve against")
	}
	entries := map[SessionKeySnapshot]*sessionEntry{}
	order := make([]SessionKeySnapshot, 0, len(snap.Entries))
	for i, es := range snap.Entries {
		if len(es.Filled) != n || len(es.InS) != n || len(es.InR) != n ||
			len(es.FamS.Helps) != n || len(es.FamR.Helps) != n {
			return fmt.Errorf("routing: cache snapshot entry %d sized for %d nodes, want %d", i, len(es.Filled), n)
		}
		if _, dup := entries[es.Key]; dup {
			return fmt.Errorf("routing: cache snapshot has duplicate entry for kS=%d kR=%d", es.Key.KS, es.Key.KR)
		}
		dirsS, err := decodeFamily(es.FamS, n)
		if err != nil {
			return fmt.Errorf("routing: cache snapshot entry %d: %w", i, err)
		}
		dirsR, err := decodeFamily(es.FamR, n)
		if err != nil {
			return fmt.Errorf("routing: cache snapshot entry %d: %w", i, err)
		}
		e := newSessionEntry(n)
		var hash *bitrand.KWiseHash
		for id := 0; id < n; id++ {
			if !es.Filled[id] {
				continue
			}
			if hash == nil {
				if len(es.HashSeed) == 0 {
					return fmt.Errorf("routing: cache snapshot entry %d has filled slots but no hash seed", i)
				}
				hash = bitrand.FromSeed(es.HashSeed, n)
			}
			famS, err := restoreFamily(clusters, es.Key.MuS, id, dirsS, es.FamS.Helps[id], es.InS[id], n)
			if err != nil {
				return fmt.Errorf("routing: cache snapshot entry %d node %d (S family): %w", i, id, err)
			}
			famR, err := restoreFamily(clusters, es.Key.MuR, id, dirsR, es.FamR.Helps[id], es.InR[id], n)
			if err != nil {
				return fmt.Errorf("routing: cache snapshot entry %d node %d (R family): %w", i, id, err)
			}
			e.famS[id], e.famR[id] = famS, famR
			e.hash[id] = hash
			e.inS[id], e.inR[id] = es.InS[id], es.InR[id]
			e.filled[id] = true
		}
		entries[es.Key] = e
		order = append(order, es.Key)
	}
	c.Replace(order, entries)
	return nil
}

// restoreFamily reassembles one node's familySnap from the structural
// cluster cache (ruler assignment, distance, shared member directory) and
// the session snapshot's per-cluster tables. The shared slices and the
// helper-set map are attached by reference — every member of a cluster
// binds the same objects, which is also what keeps the restored cache's
// memory footprint at one copy per cluster.
func restoreFamily(clusters *helpers.ClusterCache, mu, id int, dirs map[int]*familyDir, packedHelps []byte, inW bool, n int) (familySnap, error) {
	ruler, dist, members, ok := clusters.Structure(mu, id)
	if !ok {
		return familySnap{}, fmt.Errorf("dangling reference: no structural entry for µ=%d", mu)
	}
	dir, ok := dirs[ruler]
	if !ok {
		return familySnap{}, fmt.Errorf("dangling reference: no per-cluster data for ruler %d", ruler)
	}
	helps, err := unpackIDs(packedHelps, n)
	if err != nil {
		return familySnap{}, err
	}
	res := helpers.Result{
		Ruler:     ruler,
		RulerDist: dist,
		Members:   members,
		WMembers:  dir.wMembers,
		Helps:     helps,
		InW:       inW,
		Mu:        mu,
	}
	return familySnap{res: res, helperSets: dir.helperSets, myOwners: helpersOf(id, dir.helperSets)}, nil
}
