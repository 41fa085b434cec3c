// Package bitrand supplies the randomness substrate of the reproduction:
// a splittable deterministic seed source (so each node, protocol phase, and
// experiment draws from an independent, reproducible stream) and the k-wise
// independent hash family of paper Definition D.1 / Lemma D.1, which the
// token routing protocol (Algorithm 4) uses to pick pseudo-random
// intermediate nodes with O(log^2 n) shared seed bits.
package bitrand

import (
	"math/bits"
	"math/rand"
)

// golden is SplitMix64's increment, 2⁶⁴/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 mixing function; it turns any sequence of
// 64-bit labels into a well-distributed stream seed.
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source derives independent deterministic sub-streams from one root seed.
// The zero value is a valid source with seed 0.
type Source struct {
	seed uint64
}

// NewSource returns a source rooted at the given seed.
func NewSource(seed int64) *Source { return &Source{seed: uint64(seed)} }

// mix folds the labels into the root seed.
func (s *Source) mix(labels []uint64) uint64 {
	h := splitmix64(s.seed)
	for _, l := range labels {
		h = splitmix64(h ^ l)
	}
	return h
}

// Stream returns a *rand.Rand for the sub-stream identified by the labels.
// The same (seed, labels) always yields the same stream; distinct labels
// yield streams that are independent for all practical purposes. The
// stream's generator is SplitMix64 started at the mixed seed, so a node
// that draws a handful of numbers holds 8 bytes of state, not math/rand's
// 607-word source that takes about 1 900 steps to seed.
func (s *Source) Stream(labels ...uint64) *rand.Rand {
	return rand.New(&splitMix{s.mix(labels)})
}

// splitMix is SplitMix64 as a rand.Source64: each draw is splitmix64 of
// the current state, which then advances by golden.
type splitMix struct{ x uint64 }

func (g *splitMix) Uint64() uint64 {
	v := splitmix64(g.x)
	g.x += golden
	return v
}

func (g *splitMix) Int63() int64    { return int64(g.Uint64() >> 1) }
func (g *splitMix) Seed(seed int64) { g.x = uint64(seed) }

// Named returns a sub-stream identified by a protocol-phase name and integer
// indices (typically a node ID). It hashes the name bytes into a label.
func (s *Source) Named(name string, idx ...int) *rand.Rand {
	labels := make([]uint64, 0, len(idx)+1)
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	labels = append(labels, h)
	for _, i := range idx {
		labels = append(labels, uint64(i))
	}
	return s.Stream(labels...)
}

// Mersenne61 is the prime p = 2^61 - 1 over which the hash family operates.
// Keys must be < Mersenne61; token labels (s, r, i) packed as s*n^2 + r*n + i
// stay below 2^60 for all n <= 2^20, comfortably inside the field.
const Mersenne61 uint64 = (1 << 61) - 1

// addmod returns (a + b) mod p for a, b < p.
func addmod(a, b uint64) uint64 {
	s := a + b // < 2^62, no overflow
	if s >= Mersenne61 {
		s -= Mersenne61
	}
	return s
}

// mulmod returns (a * b) mod p for a, b < p, using the Mersenne folding
// identity 2^61 ≡ 1 (mod p).
func mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo; 2^64 ≡ 8 and 2^61 ≡ 1 (mod p), so
	// a*b ≡ hi*8 + (lo >> 61) + (lo & p). Each term is < 2^61 because
	// hi < 2^58 when a, b < 2^61.
	s := (lo & Mersenne61) + (lo >> 61) + hi<<3
	s = (s & Mersenne61) + (s >> 61)
	if s >= Mersenne61 {
		s -= Mersenne61
	}
	return s
}

// KWiseHash is a hash function drawn from a k-wise independent family
// H = {h : Z_p -> [m]} realized as a degree-(k-1) polynomial with uniform
// coefficients over the field Z_p (p = 2^61 - 1), reduced modulo m
// (Definition D.1; existence and seed size per Lemma D.1).
//
// For any k distinct keys, the polynomial values are uniform and
// independent over Z_p; reduction mod m preserves k-wise independence up to
// the usual O(m/p) statistical distance, which is negligible here
// (m <= n << p).
type KWiseHash struct {
	coeff []uint64 // k coefficients, degree k-1 polynomial
	m     uint64   // output range [0, m)
}

// NewKWiseHash draws a fresh function with independence parameter k and
// output range [0, m) using randomness from rng. k and m must be positive.
func NewKWiseHash(k int, m int, rng *rand.Rand) *KWiseHash {
	if k < 1 {
		k = 1
	}
	if m < 1 {
		m = 1
	}
	coeff := make([]uint64, k)
	for i := range coeff {
		// Rejection-sample a uniform field element.
		for {
			v := rng.Uint64() & ((1 << 61) - 1)
			if v < Mersenne61 {
				coeff[i] = v
				break
			}
		}
	}
	return &KWiseHash{coeff: coeff, m: uint64(m)}
}

// Hash evaluates the polynomial at key (reduced into the field first) and
// returns a value in [0, m). Distinct keys below Mersenne61 receive k-wise
// independent values.
func (h *KWiseHash) Hash(key uint64) int {
	x := key % Mersenne61
	// Horner evaluation: c[k-1]*x^{k-1} + ... + c[0].
	var acc uint64
	for i := len(h.coeff) - 1; i >= 0; i-- {
		acc = addmod(mulmod(acc, x), h.coeff[i])
	}
	return int(acc % h.m)
}

// Seed returns the coefficient vector; the token routing protocol treats it
// as the publicly broadcast seed. The slice is shared; callers must not
// modify it.
func (h *KWiseHash) Seed() []uint64 { return h.coeff }

// FromSeed reconstructs the hash function every node derives after
// receiving the broadcast seed.
func FromSeed(seed []uint64, m int) *KWiseHash {
	coeff := make([]uint64, len(seed))
	for i, c := range seed {
		coeff[i] = c % Mersenne61
	}
	if m < 1 {
		m = 1
	}
	return &KWiseHash{coeff: coeff, m: uint64(m)}
}
