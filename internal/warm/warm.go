// Package warm is the warm-start guard the two cross-run caches share:
// routing.SessionCache (Algorithm 1's helper families and the session
// hash) and helpers.ClusterCache (the seed-independent cluster structure).
// The paper's cost accounting already reuses those structures across the
// routing instances of one run — they depend on S, R, µ and the sample,
// not on the tokens — and a Store extends the reuse across runs, with
// every reuse guarded by one collective agreement (Guard). A cache package
// keeps only what really differs: its key and trace label, what a slot
// holds, its stale, store and bind predicates, and its snapshot codec.
// Algorithm 6's skeleton has no cache: its h exploration rounds are
// local-only, and skipping them on a warm start saved no measurable time.
package warm

import (
	"sync"

	"repro/internal/ncc"
	"repro/internal/sim"
)

// MaxEntries bounds every Store: one entry holds O(n) per-node slots (up to
// O(n·µ) helper directories), and a parameter sweep that never repeats a
// key would otherwise grow without bound. Eviction is FIFO on insertion
// order — deterministic, so repeated runs with the same seed keep identical
// hit/miss sequences and therefore identical round counts.
const MaxEntries = 16

// Store maps the globally known part of a construction's identity (K) to
// the per-node state it produced (E, one slot per node). Each node only
// ever reads and writes its own slot of an entry, so slot access needs no
// lock: the engines' round barriers (within a run) and the run's return
// (across runs) order every write before every later read. Runs of the
// owning Network must not overlap (they never do; engines run one barrier
// loop at a time).
type Store[K comparable, E any] struct {
	label func(K) string
	alloc func(n int) *E

	mu      sync.Mutex
	entries map[K]*E
	order   []K // insertion order, for deterministic FIFO eviction
	trace   func(event string)
}

// NewStore returns an empty store, ready to be shared by any number of
// sequential runs over the same node set. label names a key in trace lines;
// alloc makes an empty entry for an n-node run.
func NewStore[K comparable, E any](label func(K) string, alloc func(n int) *E) *Store[K, E] {
	return &Store[K, E]{label: label, alloc: alloc, entries: map[K]*E{}}
}

// SetTrace installs a cache-event hook: fn is invoked (at node 0 only, so
// the trace is a single global sequence) with one line per collective
// agreement, "<label>: hit" or "<label>: rebuild". The sequence is
// engine-independent; the golden round-trace test pins it.
func (s *Store[K, E]) SetTrace(fn func(event string)) { s.trace = fn }

// Len reports the number of cached entries (for tests and diagnostics).
func (s *Store[K, E]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Lookup returns key's entry, or nil.
func (s *Store[K, E]) Lookup(key K) *E {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key]
}

// Each yields the entries in insertion order, holding the store's lock —
// what a snapshot ranges over, so that a restored store keeps the same
// eviction sequence.
func (s *Store[K, E]) Each(yield func(K, *E) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range s.order {
		if !yield(key, s.entries[key]) {
			return
		}
	}
}

// Replace swaps the store's whole contents for entries, inserted in order:
// how a snapshot is restored, and (with nothing) how a rejected cache file
// leaves the store cold. The trace hook stays installed.
func (s *Store[K, E]) Replace(order []K, entries map[K]*E) {
	s.mu.Lock()
	s.order, s.entries = order, entries
	s.mu.Unlock()
}

// shared returns the run-shared entry being (re)populated for key, creating
// it and installing it into the store exactly once per run: env.SharedOnce
// guarantees all nodes of the run store into the same object (its per-call
// numbering keeps repeated constructions within one run distinct),
// replacing any stale entry under the store's lock.
func (s *Store[K, E]) shared(env *sim.Env, key K) *E {
	return env.SharedOnce("warm.Store", func() interface{} {
		e := s.alloc(env.N())
		s.mu.Lock()
		if _, exists := s.entries[key]; !exists {
			if len(s.order) >= MaxEntries {
				delete(s.entries, s.order[0])
				s.order = s.order[1:]
			}
			s.order = append(s.order, key)
		}
		s.entries[key] = e
		s.mu.Unlock()
		return e
	}).(*E)
}

// Guard is the cached form of a collective construction; all nodes must
// start it in the same round with the same key.
//
// Correctness is collective. No single node knows whether the cached state
// is still valid everywhere — the membership bits, the sampled draws and
// the populated slots are per node — so the guard first runs one global
// max-aggregation (2·ceil(log2 n) rounds, Lemma B.2) in which each node
// reports whether its own slot is stale (a missing entry always is). Only a
// unanimous "fresh" runs hit, which binds the node's slot of the cached
// entry; a single stale node makes every node run miss, the construction
// from scratch, and then store its result into the run-shared entry that
// replaces the cached one. Every node therefore takes the same branch,
// round counts stay globally consistent on every engine, and a cache never
// changes results — only the number of construction rounds.
//
// hit and miss may return nil for a zero-round branch. The entry is looked
// up now; stale is asked when the machine is first stepped.
func (s *Store[K, E]) Guard(key K,
	stale func(e *E) bool,
	hit func(env *sim.Env, e *E) sim.StepProgram,
	miss func(env *sim.Env) sim.StepProgram,
	store func(env *sim.Env, e *E),
) sim.StepProgram {
	entry := s.Lookup(key)
	var agg *ncc.AggregateMachine
	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			var bit int64
			if entry == nil || stale(entry) {
				bit = 1
			}
			agg = ncc.NewAggregateMachine(env, bit, ncc.AggMax)
			return agg
		},
		func(env *sim.Env) sim.StepProgram {
			verdict := "rebuild"
			if agg.Out == 0 {
				verdict = "hit"
			}
			if s.trace != nil && env.ID() == 0 {
				s.trace(s.label(key) + ": " + verdict)
			}
			if agg.Out == 0 {
				return hit(env, entry)
			}
			return miss(env)
		},
		sim.Finish(func(env *sim.Env) {
			if agg.Out != 0 {
				store(env, s.shared(env, key))
			}
		}),
	)
}
