// Package flatmap provides the open-addressed flat hash containers used by
// the per-round hot loops of the protocol packages (routing, skeleton,
// helpers, ncc). The flood dedup sets and per-phase scratch maps are the
// protocols' hottest data structures — every record is checked once per
// neighbor arrival, and the containers are cleared and refilled to a
// similar size every phase — so a reusable flat table with a
// multiplicative hash beats the generic Go map by a large constant factor
// and, crucially, stops allocating after warm-up: Reset clears in place
// instead of reallocating, which is what makes steady-state rounds
// allocation-free (see ARCHITECTURE.md, "Memory discipline").
//
// # Determinism
//
// The engines' byte-identity discipline forbids any iteration order that
// depends on Go's randomized map seeds. These containers have no such
// randomness: probe positions are a pure function of the key, so the table
// layout is a deterministic function of the insertion history. Callers that
// need a canonical order independent of history sort the drained keys
// (AppendSortedKeys); callers that only dedup or look up need no order at all.
//
// # Shrink on reset
//
// The tables are reused across phases, so one giant fill would otherwise
// pin its peak capacity for the session's whole lifetime. A table is
// reallocated smaller at Reset when it is at least shrinkMinCap slots AND
// its last fill used less than 1/shrinkDivisor of the capacity — both
// conditions are pure functions of (used, cap), so shrinking is
// deterministic and identical across engines and runs. Tables below
// shrinkMinCap never shrink: reallocating them saves nothing measurable,
// and the no-shrink floor keeps steady-state workloads allocation-free.
package flatmap

import "slices"

// Hash spreads a uint64 key over the table. The table index is taken from
// the LOW bits of the result, and packed keys (e.g. routing labels) vary
// mostly in their HIGH bits, so this must be a full-avalanche mix — a
// plain multiply would park every such key in one probe chain. splitmix64
// finalizer.
func Hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

const (
	shrinkMinCap  = 4096
	shrinkDivisor = 8
	minTableSize  = 64
)

// shrunkSize returns the new capacity for a table of size cap whose last
// fill had `used` live entries, or 0 to keep the current table. The chosen
// power of two keeps a refill of the same size below 1/4 load, well under
// the 3/4 grow trigger, so alternating loads don't thrash.
func shrunkSize(used, cap int) int {
	if cap < shrinkMinCap || used*shrinkDivisor >= cap {
		return 0
	}
	size := minTableSize
	for size < used*4 {
		size <<= 1
	}
	return size
}

// Set is a linear-probe set of uint64 keys. Keys are stored offset by one
// so the zero word means "empty"; callers' keys must stay below 2^64-1 so
// the offset cannot wrap (every key in this module is either a node ID or
// a packed label below 2^58).
//
// The zero value is an empty set ready for use.
type Set struct {
	tab  []uint64
	used int
}

// Reset empties the set in place, keeping capacity unless the shrink
// policy fires (see the package comment).
func (s *Set) Reset() {
	if size := shrunkSize(s.used, len(s.tab)); size > 0 {
		s.tab = make([]uint64, size)
		s.used = 0
		return
	}
	if s.used > 0 {
		clear(s.tab)
		s.used = 0
	}
}

// Len reports the number of live keys.
func (s *Set) Len() int { return s.used }

// Cap reports the current table capacity (for tests and diagnostics).
func (s *Set) Cap() int { return len(s.tab) }

// Add inserts k and reports whether it was absent.
func (s *Set) Add(k uint64) bool {
	if s.used*4 >= len(s.tab)*3 {
		s.grow()
	}
	v := k + 1
	mask := uint64(len(s.tab) - 1)
	i := Hash(k) & mask
	for {
		switch s.tab[i] {
		case 0:
			s.tab[i] = v
			s.used++
			return true
		case v:
			return false
		}
		i = (i + 1) & mask
	}
}

// Has reports whether k is present.
func (s *Set) Has(k uint64) bool {
	if s.used == 0 {
		return false
	}
	v := k + 1
	mask := uint64(len(s.tab) - 1)
	i := Hash(k) & mask
	for {
		switch s.tab[i] {
		case 0:
			return false
		case v:
			return true
		}
		i = (i + 1) & mask
	}
}

// AppendSortedKeys appends the live keys to dst in ascending order and
// returns the extended slice. The canonical drain for callers whose
// downstream logic must not depend on insertion history.
func (s *Set) AppendSortedKeys(dst []uint64) []uint64 {
	start := len(dst)
	for _, v := range s.tab {
		if v != 0 {
			dst = append(dst, v-1)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

func (s *Set) grow() {
	old := s.tab
	size := minTableSize
	if len(old) > 0 {
		size = len(old) * 2
	}
	s.tab = make([]uint64, size)
	s.used = 0
	for _, v := range old {
		if v != 0 {
			s.reinsert(v)
		}
	}
}

func (s *Set) reinsert(v uint64) {
	mask := uint64(len(s.tab) - 1)
	i := Hash(v-1) & mask
	for s.tab[i] != 0 {
		i = (i + 1) & mask
	}
	s.tab[i] = v
	s.used++
}

// Map is a linear-probe map from uint64 keys to values of any type, with
// the same storage scheme and shrink policy as Set. The zero value is an
// empty map ready for use.
type Map[V any] struct {
	keys []uint64
	vals []V
	used int
}

// Reset empties the map in place, keeping capacity unless the shrink
// policy fires. Values are cleared so the map does not retain pointers
// from the previous fill.
func (m *Map[V]) Reset() {
	if size := shrunkSize(m.used, len(m.keys)); size > 0 {
		m.keys = make([]uint64, size)
		m.vals = make([]V, size)
		m.used = 0
		return
	}
	if m.used > 0 {
		clear(m.keys)
		clear(m.vals)
		m.used = 0
	}
}

// Len reports the number of live entries.
func (m *Map[V]) Len() int { return m.used }

// Cap reports the current table capacity (for tests and diagnostics).
func (m *Map[V]) Cap() int { return len(m.keys) }

// Put inserts or overwrites k.
func (m *Map[V]) Put(k uint64, val V) {
	if m.used*4 >= len(m.keys)*3 {
		m.grow()
	}
	v := k + 1
	mask := uint64(len(m.keys) - 1)
	i := Hash(k) & mask
	for {
		switch m.keys[i] {
		case 0:
			m.keys[i] = v
			m.vals[i] = val
			m.used++
			return
		case v:
			m.vals[i] = val
			return
		}
		i = (i + 1) & mask
	}
}

// Get looks k up.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.used == 0 {
		var zero V
		return zero, false
	}
	v := k + 1
	mask := uint64(len(m.keys) - 1)
	i := Hash(k) & mask
	for {
		switch m.keys[i] {
		case 0:
			var zero V
			return zero, false
		case v:
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// Has reports whether k is present without copying the value.
func (m *Map[V]) Has(k uint64) bool {
	if m.used == 0 {
		return false
	}
	v := k + 1
	mask := uint64(len(m.keys) - 1)
	i := Hash(k) & mask
	for {
		switch m.keys[i] {
		case 0:
			return false
		case v:
			return true
		}
		i = (i + 1) & mask
	}
}

// AppendSortedKeys appends the live keys to dst in ascending order and
// returns the extended slice (see Set.AppendSortedKeys).
func (m *Map[V]) AppendSortedKeys(dst []uint64) []uint64 {
	start := len(dst)
	for _, v := range m.keys {
		if v != 0 {
			dst = append(dst, v-1)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

func (m *Map[V]) grow() {
	oldK, oldV := m.keys, m.vals
	size := minTableSize
	if len(oldK) > 0 {
		size = len(oldK) * 2
	}
	m.keys = make([]uint64, size)
	m.vals = make([]V, size)
	m.used = 0
	for i, v := range oldK {
		if v != 0 {
			m.reinsertKV(v, oldV[i])
		}
	}
}

func (m *Map[V]) reinsertKV(v uint64, val V) {
	mask := uint64(len(m.keys) - 1)
	i := Hash(v-1) & mask
	for m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	m.keys[i] = v
	m.vals[i] = val
	m.used++
}
