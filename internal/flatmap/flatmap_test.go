package flatmap

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHashTableShrinkOnReset pins the shrink policy (moved here from
// internal/routing when the containers were generalized): a table blown up
// by one giant fill returns to a small capacity on the next reset, small
// tables never shrink, and steady-state loads near the table's capacity
// don't thrash between shrink and grow.
func TestHashTableShrinkOnReset(t *testing.T) {
	var s Set
	const big = 1 << 16
	for i := uint64(0); i < big; i++ {
		s.Add(i * 3)
	}
	peak := s.m.Cap()
	if peak < big {
		t.Fatalf("peak capacity %d below fill %d", peak, big)
	}
	// The reset right after the giant fill keeps capacity (the table was
	// genuinely full); the reset after the next small fill is what detects
	// the overprovisioning and shrinks.
	s.m.Reset()
	if s.m.Cap() != peak {
		t.Errorf("reset after a full table resized it: %d -> %d", peak, s.m.Cap())
	}
	for i := uint64(0); i < 1000; i++ {
		if !s.Add(i) {
			t.Fatalf("key %d reported present in an empty table", i)
		}
	}
	s.m.Reset()
	if s.m.Cap() >= peak {
		t.Errorf("reset after a small fill kept capacity %d (peak %d)", s.m.Cap(), peak)
	}
	if s.m.Cap() < minTableSize {
		t.Errorf("shrunk below the minimum table size: %d", s.m.Cap())
	}
	// The shrunk table still works and grows back on demand.
	for i := uint64(0); i < 1000; i++ {
		if !s.Add(i) {
			t.Fatalf("key %d reported present in the shrunk table", i)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("used = %d after 1000 inserts", s.Len())
	}

	// Deterministic policy: shrunkSize depends only on (used, cap).
	if got := shrunkSize(0, shrinkMinCap/2); got != 0 {
		t.Errorf("small table shrank: %d", got)
	}
	if got := shrunkSize(shrinkMinCap/shrinkDivisor, shrinkMinCap); got != 0 {
		t.Errorf("table at the occupancy threshold shrank: %d", got)
	}
	if got := shrunkSize(10, 1<<20); got == 0 || got > 1<<20/shrinkDivisor {
		t.Errorf("huge sparse table kept too much: %d", got)
	}

	// Steady state: a load that refills to the same size must not shrink
	// on every reset (the shrunk size admits the refill below the grow
	// trigger).
	var m Map[int64]
	for i := uint64(0); i < big; i++ {
		m.Put(i, int64(i))
	}
	peakM := m.Cap()
	m.Reset() // full: keeps capacity
	m.Put(7, 7)
	m.Reset() // sparse: shrinks both arrays
	if m.Cap() >= peakM {
		t.Errorf("map reset after a small fill kept capacity %d (peak %d)", m.Cap(), peakM)
	}
	shrunk := m.Cap()
	fill := shrunk / shrinkDivisor // just at the keep threshold
	for round := 0; round < 3; round++ {
		for i := 0; i < fill; i++ {
			m.Put(uint64(i), 1)
		}
		if m.Cap() != shrunk {
			t.Fatalf("round %d: steady-state load resized the table: %d -> %d", round, shrunk, m.Cap())
		}
		m.Reset()
		if m.Cap() != shrunk {
			t.Fatalf("round %d: steady-state reset resized the table: %d -> %d", round, shrunk, m.Cap())
		}
	}

	// Map shrinks both arrays together.
	if len(m.keys) != len(m.vals) {
		t.Errorf("keys and vals diverged: %d vs %d", len(m.keys), len(m.vals))
	}
}

// keyGen draws keys from a few adversarial distributions: dense small
// integers, high-bit-varying packed-label-like keys (the routing case the
// avalanche hash exists for), and keys engineered to collide in the low
// hash bits.
func keyGen(rng *rand.Rand, mode int) uint64 {
	switch mode % 3 {
	case 0:
		return uint64(rng.Intn(512))
	case 1:
		return uint64(rng.Intn(1<<14)) << 44 // label-style: entropy in high bits only
	default:
		// Collision-heavy: force identical low hash bits so probe chains
		// get long.
		base := uint64(rng.Intn(64))
		for {
			k := uint64(rng.Int63())
			if Hash(k)&63 == Hash(base)&63 {
				return k
			}
		}
	}
}

// TestSetMatchesMapOracle drives Set through randomized
// add/has/reset sequences mirrored into a built-in map and checks
// full agreement (membership, cardinality, drained contents) at every
// reset and at the end.
func TestSetMatchesMapOracle(t *testing.T) {
	for mode := 0; mode < 3; mode++ {
		rng := rand.New(rand.NewSource(int64(1000 + mode)))
		var s Set
		oracle := map[uint64]bool{}
		checkDrain := func() {
			t.Helper()
			if s.Len() != len(oracle) {
				t.Fatalf("mode %d: len %d, oracle %d", mode, s.Len(), len(oracle))
			}
			keys := s.m.AppendSortedKeys(nil)
			if len(keys) != len(oracle) {
				t.Fatalf("mode %d: drained %d keys, oracle %d", mode, len(keys), len(oracle))
			}
			for i, k := range keys {
				if !oracle[k] {
					t.Fatalf("mode %d: drained key %d not in oracle", mode, k)
				}
				if i > 0 && keys[i-1] >= k {
					t.Fatalf("mode %d: drain not sorted/unique at %d", mode, i)
				}
			}
		}
		for op := 0; op < 20000; op++ {
			k := keyGen(rng, mode)
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				if got, want := s.Add(k), !oracle[k]; got != want {
					t.Fatalf("mode %d op %d: Add(%d) = %v, oracle %v", mode, op, k, got, want)
				}
				oracle[k] = true
			case 5, 6:
				if got, want := s.Has(k), oracle[k]; got != want {
					t.Fatalf("mode %d op %d: Has(%d) = %v, oracle %v", mode, op, k, got, want)
				}
			default:
				if rng.Intn(50) == 0 { // rare: resets clear all progress
					checkDrain()
					s.m.Reset()
					oracle = map[uint64]bool{}
				}
			}
		}
		checkDrain()
	}
}

// TestMapMatchesMapOracle is the Map[V] twin of the set property test,
// additionally checking stored values through overwrites.
func TestMapMatchesMapOracle(t *testing.T) {
	for mode := 0; mode < 3; mode++ {
		rng := rand.New(rand.NewSource(int64(2000 + mode)))
		var m Map[int64]
		oracle := map[uint64]int64{}
		check := func() {
			t.Helper()
			if m.Len() != len(oracle) {
				t.Fatalf("mode %d: len %d, oracle %d", mode, m.Len(), len(oracle))
			}
			for _, k := range m.AppendSortedKeys(nil) {
				got, ok := m.Get(k)
				want, okO := oracle[k]
				if !ok || !okO || got != want {
					t.Fatalf("mode %d: Get(%d) = (%d,%v), oracle (%d,%v)", mode, k, got, ok, want, okO)
				}
			}
		}
		for op := 0; op < 20000; op++ {
			k := keyGen(rng, mode)
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				v := rng.Int63()
				m.Put(k, v)
				oracle[k] = v
			case 5, 6:
				got, ok := m.Get(k)
				want, okO := oracle[k]
				if ok != okO || got != want {
					t.Fatalf("mode %d op %d: Get(%d) = (%d,%v), oracle (%d,%v)", mode, op, k, got, ok, want, okO)
				}
			default:
				if rng.Intn(50) == 0 {
					check()
					m.Reset()
					oracle = map[uint64]int64{}
				}
			}
		}
		check()
	}
}

// TestDrainOrderDeterministic pins the determinism contract the engines
// rely on: two tables fed the same insertion history drain identically,
// and the sorted drain is canonical regardless of history.
func TestDrainOrderDeterministic(t *testing.T) {
	keys := make([]uint64, 3000)
	rng := rand.New(rand.NewSource(77))
	for i := range keys {
		keys[i] = uint64(rng.Int63n(1 << 58))
	}
	var a, b Set
	for _, k := range keys {
		a.Add(k)
		b.Add(k)
	}
	da := a.m.AppendSortedKeys(nil)
	db := b.m.AppendSortedKeys(nil)
	if len(da) != len(db) {
		t.Fatalf("drain lengths diverged: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("drains diverged at %d: %d vs %d", i, da[i], db[i])
		}
	}
	// Reversed insertion history, same sorted drain.
	var c Set
	for i := len(keys) - 1; i >= 0; i-- {
		c.Add(keys[i])
	}
	dc := c.m.AppendSortedKeys(nil)
	for i := range da {
		if da[i] != dc[i] {
			t.Fatalf("sorted drain depends on insertion order at %d", i)
		}
	}
}

// TestZeroValueContainers checks that the zero values are usable and that
// lookups on empty tables are safe no-ops.
func TestZeroValueContainers(t *testing.T) {
	var s Set
	if s.Has(1) || s.Len() != 0 {
		t.Fatal("zero Set not empty-safe")
	}
	s.m.Reset()
	var m Map[[]int64]
	if _, ok := m.Get(1); ok || m.Has(1) {
		t.Fatal("zero Map not empty-safe")
	}
	m.Reset()
	m.Put(9, []int64{1, 2})
	if v, ok := m.Get(9); !ok || len(v) != 2 {
		t.Fatal("slice-valued Map lost its value")
	}
	m.Reset()
	if v, ok := m.Get(9); ok || v != nil {
		t.Fatal("Reset did not clear slice values")
	}
}

// FuzzFlatmap feeds an opcode tape to Set and Map side by side with
// built-in map oracles — the nightly fuzz job mutates tapes hunting for
// probe-chain states (grow boundaries, shrink resets)
// the fixed property seeds miss.
func FuzzFlatmap(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xC3, 0x04, 0x45, 0x86, 0xC7})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00, 0x81, 0x81, 0x42, 0x42, 0x13})
	f.Add([]byte("flatmap-differential"))
	f.Fuzz(func(t *testing.T, tape []byte) {
		var s Set
		var m Map[int64]
		sOracle := map[uint64]bool{}
		mOracle := map[uint64]int64{}
		for pos := 0; pos+1 < len(tape); pos += 2 {
			op, kb := tape[pos]>>6, tape[pos]&0x3F
			// Narrow key space (64 keys stretched over high bits) so
			// mutated tapes actually revisit keys; the stretch keeps the
			// avalanche path honest.
			k := uint64(kb) << 40
			val := int64(tape[pos+1])
			switch op {
			case 0, 2:
				if got, want := s.Add(k), !sOracle[k]; got != want {
					t.Fatalf("Add(%d) = %v, oracle %v", k, got, want)
				}
				sOracle[k] = true
				m.Put(k, val)
				mOracle[k] = val
			case 1:
				if got, want := s.Has(k), sOracle[k]; got != want {
					t.Fatalf("Has(%d) = %v, oracle %v", k, got, want)
				}
				got, ok := m.Get(k)
				want, okO := mOracle[k]
				if ok != okO || got != want {
					t.Fatalf("Get(%d) = (%d,%v), oracle (%d,%v)", k, got, ok, want, okO)
				}
			default:
				if val < 16 { // occasional reset
					s.m.Reset()
					m.Reset()
					sOracle = map[uint64]bool{}
					mOracle = map[uint64]int64{}
				}
			}
			if s.Len() != len(sOracle) || m.Len() != len(mOracle) {
				t.Fatalf("cardinality diverged: set %d/%d, map %d/%d",
					s.Len(), len(sOracle), m.Len(), len(mOracle))
			}
		}
		for _, k := range s.m.AppendSortedKeys(nil) {
			if !sOracle[k] {
				t.Fatalf("drained key %d not in oracle", k)
			}
		}
		for _, k := range m.AppendSortedKeys(nil) {
			got, _ := m.Get(k)
			if want, ok := mOracle[k]; !ok || got != want {
				t.Fatalf("drained entry %d=%d, oracle (%d,%v)", k, got, want, ok)
			}
		}
	})
}

// Cap reports the current table capacity (for tests and diagnostics).
func (m *Map[V]) Cap() int { return len(m.keys) }

// AppendSortedKeys appends the live keys to dst in ascending order and
// returns the extended slice. The canonical drain for callers whose
// downstream logic must not depend on insertion history.
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
