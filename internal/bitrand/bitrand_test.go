package bitrand

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

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

// TestSplitMixReferenceVector holds the stream generator to the published
// SplitMix64 output for seed 1234567.
func TestSplitMixReferenceVector(t *testing.T) {
	g := &splitMix{1234567}
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821} {
		if got := g.Uint64(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestStreamKnownAnswers pins the first draws of node streams and of
// streams with zero, one and many labels. Every protocol's randomness comes
// from these streams, so a change of generator or of label mixing fails
// here once, before it fails every downstream trace pin.
func TestStreamKnownAnswers(t *testing.T) {
	s := NewSource(1)
	tests := []struct {
		name string
		r    *rand.Rand
		want [3]uint64
	}{
		{"node 0", s.Named("node", 0), [3]uint64{0x7652f50c3cf9b6e1, 0x7c1f1684cfe2c687, 0x786f99736b2adb96}},
		{"node 1", s.Named("node", 1), [3]uint64{0x4498796b901f1cb6, 0x81de9262a31cb74d, 0x84b3a715ed04a447}},
		{"node 2", s.Named("node", 2), [3]uint64{0x1ac66e68f9d4970e, 0x81808575d85cb63c, 0xd4bb94f438f84cda}},
		{"no labels", s.Stream(), [3]uint64{0x5e41ab087439611e, 0xf18d6ce93d6cf1ee, 0x0b95f66d327e8d78}},
		{"one label", s.Stream(7), [3]uint64{0xf7a96fa7e40e81b5, 0xddcd50e4079da4c6, 0xc956cce099004b64}},
		{"five labels", s.Stream(1, 2, 3, 4, 5), [3]uint64{0xfa5280c52125c983, 0xd20a649e2e9ce519, 0xa88b2a492b2b4632}},
	}
	for _, tt := range tests {
		for i, want := range tt.want {
			if got := tt.r.Uint64(); got != want {
				t.Errorf("%s: draw %d = %#x, want %#x", tt.name, i, got, want)
			}
		}
	}
}

// TestStreamBytes bounds what one node stream costs: Named, as sim.Env.Rand
// calls it, plus its first draw. The rand.Rand, the 8-byte generator and the
// label slice come to 72 B; math/rand's own source costs 5 440 B. Not under
// -race, which instruments allocations.
func TestStreamBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const runs, limit = 1000, 128
	s := NewSource(1)
	// MemStats counts the whole process: hold the collector and the other
	// Ps off, as testing.AllocsPerRun does.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sink uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink += s.Named("node", i).Uint64()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Fatalf("a node stream and its first draw allocate %d B, want at most %d (sink %d)", per, limit, sink)
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
