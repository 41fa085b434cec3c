package bitrand

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// The package's tests use two accessors nothing else calls.

// Range returns m, the size of the output range.
func (h *KWiseHash) Range() int { return int(h.m) }

// SeedBits returns the number of random bits that define this function:
// k coefficients of 61 bits each. For k = Θ(log n) this is the O(log^2 n)
// seed of Lemma 2.3 / Lemma D.1 that the protocol broadcasts in O~(1)
// rounds.
func (h *KWiseHash) SeedBits() int { return len(h.coeff) * 61 }

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42).Named("phase", 3)
	b := NewSource(42).Named("phase", 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSourceStreamsDiffer(t *testing.T) {
	s := NewSource(42)
	tests := []struct {
		name string
		a, b *rand.Rand
	}{
		{"different names", s.Named("a"), s.Named("b")},
		{"different indices", s.Named("x", 1), s.Named("x", 2)},
		{"different label count", s.Stream(1), s.Stream(1, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			same := 0
			for i := 0; i < 64; i++ {
				if tt.a.Uint64() == tt.b.Uint64() {
					same++
				}
			}
			if same > 2 {
				t.Fatalf("%d/64 identical draws; streams not independent", same)
			}
		})
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(1).Named("p")
	b := NewSource(2).Named("p")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different root seeds produced identical streams")
	}
}

func TestZeroValueSourceUsable(t *testing.T) {
	var s Source
	if s.Named("x") == nil {
		t.Fatal("zero-value Source should produce streams")
	}
}

func TestMulmodAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := new(big.Int).SetUint64(Mersenne61)
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % Mersenne61
		b := rng.Uint64() % Mersenne61
		got := mulmod(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Fatalf("mulmod(%d,%d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
}

func TestMulmodEdgeCases(t *testing.T) {
	pm1 := Mersenne61 - 1
	tests := []struct {
		a, b, want uint64
	}{
		{0, 0, 0},
		{0, pm1, 0},
		{1, pm1, pm1},
		{2, Mersenne61 / 2, Mersenne61 - 1}, // 2 * (p-1)/2 = p-1
		{pm1, pm1, 1},                       // (-1)*(-1) = 1 mod p
	}
	for _, tt := range tests {
		if got := mulmod(tt.a, tt.b); got != tt.want {
			t.Fatalf("mulmod(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAddmod(t *testing.T) {
	if got := addmod(Mersenne61-1, 1); got != 0 {
		t.Fatalf("addmod(p-1,1) = %d, want 0", got)
	}
	if got := addmod(5, 7); got != 12 {
		t.Fatalf("addmod(5,7) = %d, want 12", got)
	}
}

func TestKWiseHashRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewKWiseHash(8, 100, rng)
	for key := uint64(0); key < 5000; key++ {
		v := h.Hash(key)
		if v < 0 || v >= 100 {
			t.Fatalf("Hash(%d) = %d outside [0,100)", key, v)
		}
	}
}

func TestKWiseHashDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	h1 := NewKWiseHash(6, 64, rng1)
	h2 := NewKWiseHash(6, 64, rng2)
	for key := uint64(0); key < 1000; key++ {
		if h1.Hash(key) != h2.Hash(key) {
			t.Fatalf("same rng seed produced different hash functions at key %d", key)
		}
	}
}

func TestKWiseHashSeedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := NewKWiseHash(10, 37, rng)
	h2 := FromSeed(h.Seed(), h.Range())
	for key := uint64(0); key < 2000; key++ {
		if h.Hash(key) != h2.Hash(key) {
			t.Fatalf("FromSeed mismatch at key %d", key)
		}
	}
}

func TestKWiseHashSeedBits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// For k = Θ(log n) the seed is O(log^2 n) bits (Lemma D.1): with
	// n = 2^20, k = 20 => 20*61 = 1220 bits, about 3 log^2 n.
	h := NewKWiseHash(20, 1<<20, rng)
	if h.SeedBits() != 20*61 {
		t.Fatalf("SeedBits = %d, want %d", h.SeedBits(), 20*61)
	}
	logn := 20.0
	if float64(h.SeedBits()) > 4*logn*logn {
		t.Fatalf("seed bits %d not O(log^2 n) for n=2^20", h.SeedBits())
	}
}

func TestKWiseHashUniformity(t *testing.T) {
	// Empirical balance: hashing N keys into m buckets, each bucket should
	// hold close to N/m. With k-wise independence the Chernoff bound of
	// Lemma A.1/Remark A.1 applies; we allow 5 sigma.
	rng := rand.New(rand.NewSource(6))
	const m, nkeys = 64, 64 * 1024
	h := NewKWiseHash(12, m, rng)
	counts := make([]int, m)
	for key := uint64(0); key < nkeys; key++ {
		counts[h.Hash(key*2654435761+17)]++
	}
	mean := float64(nkeys) / m
	sigma := math.Sqrt(mean)
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 5*sigma {
			t.Fatalf("bucket %d has %d keys, mean %.1f (departure > 5 sigma)", b, c, mean)
		}
	}
}

func TestKWiseHashPairwiseIndependenceEmpirical(t *testing.T) {
	// For pairs of distinct keys, P[h(x)=a AND h(y)=b] should be ~1/m^2.
	// Estimate over many independently drawn functions.
	rng := rand.New(rand.NewSource(7))
	const m = 4
	const draws = 20000
	joint := 0
	for i := 0; i < draws; i++ {
		h := NewKWiseHash(4, m, rng)
		if h.Hash(123) == 1 && h.Hash(987) == 2 {
			joint++
		}
	}
	want := float64(draws) / (m * m)
	got := float64(joint)
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("joint count %v, want ~%v: family not pairwise independent", got, want)
	}
}

func TestKWiseHashDegenerateParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := NewKWiseHash(0, 0, rng)
	if len(h.Seed()) != 1 || h.Range() != 1 {
		t.Fatalf("degenerate params: k=%d Range=%d, want 1,1", len(h.Seed()), h.Range())
	}
	if v := h.Hash(55); v != 0 {
		t.Fatalf("range-1 hash returned %d, want 0", v)
	}
}

// Property: hash output always lies in range, for arbitrary keys/params.
func TestQuickHashInRange(t *testing.T) {
	f := func(seed int64, kRaw, mRaw uint8, key uint64) bool {
		k := 1 + int(kRaw%16)
		m := 1 + int(mRaw)%512
		rng := rand.New(rand.NewSource(seed))
		h := NewKWiseHash(k, m, rng)
		v := h.Hash(key)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mulmod is commutative and addmod associative-compatible.
func TestQuickFieldLaws(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a, b, c = a%Mersenne61, b%Mersenne61, c%Mersenne61
		if mulmod(a, b) != mulmod(b, a) {
			return false
		}
		if addmod(addmod(a, b), c) != addmod(a, addmod(b, c)) {
			return false
		}
		// Distributivity: a*(b+c) = a*b + a*c.
		return mulmod(a, addmod(b, c)) == addmod(mulmod(a, b), mulmod(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKWiseHash(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := NewKWiseHash(16, 1<<16, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(uint64(i))
	}
}
