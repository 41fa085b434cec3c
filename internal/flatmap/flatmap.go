// Package flatmap provides the open-addressed flat hash containers used by
// the per-round hot loops of the protocol packages (routing, skeleton,
// ncc) wherever keys are not node IDs: routing's intermediate store, the
// exploration's source slots, the label directory and the pipelined
// broadcast's slot map. They are probed on every arrival and cleared and
// refilled to a similar size every phase, so a reusable flat table with a
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
// layout is a deterministic function of the insertion history. Callers only
// dedup and look up, so no order reaches them at all.
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

// Set is a set of uint64 keys: a Map with empty values, so it has Map's
// storage scheme, key bound and shrink policy. The zero value is an empty
// set ready for use.
type Set struct{ m Map[struct{}] }

// Len reports the number of live keys.
func (s *Set) Len() int { return s.m.Len() }

// Add inserts k and reports whether it was absent.
func (s *Set) Add(k uint64) bool {
	n := s.m.Len()
	s.m.Put(k, struct{}{})
	return s.m.Len() > n
}

// Has reports whether k is present.
func (s *Set) Has(k uint64) bool { return s.m.Has(k) }

// Map is a linear-probe map from uint64 keys to values of any type. Keys
// are stored offset by one so the zero word means "empty"; callers' keys
// must stay below 2^64-1 so the offset cannot wrap (every key in this
// module is either a node ID or a packed label below 2^58).
//
// The zero value is an empty map ready for use.
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
