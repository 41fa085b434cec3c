package lowerbound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGammaStructure(t *testing.T) {
	p := GammaParams{K: 3, L: 4, W: 10}
	a := make([]bool, p.Bits())
	b := make([]bool, p.Bits())
	gm, err := BuildGamma(p, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if gm.G.N() != p.N() {
		t.Fatalf("N = %d, want %d", gm.G.N(), p.N())
	}
	if !gm.G.Connected() {
		t.Fatal("Gamma must be connected")
	}
	// Matching paths: V1[i] to U1[i] at hop distance exactly L.
	for i := 0; i < p.K; i++ {
		d := graph.BFS(gm.G, gm.V1[i])
		if d[gm.U1[i]] != int64(p.L) {
			t.Fatalf("hop(V1[%d], U1[%d]) = %d, want %d", i, i, d[gm.U1[i]], p.L)
		}
	}
	// Apex path: v̂ to û at hop distance L.
	d := graph.BFS(gm.G, gm.VHat)
	if d[gm.UHat] != int64(p.L) {
		t.Fatalf("hop(v̂, û) = %d, want %d", d[gm.UHat], p.L)
	}
	// Columns: cliques at 0 and L.
	for _, v := range gm.V1 {
		if gm.Column[v] != 0 {
			t.Fatalf("V1 node %d in column %d", v, gm.Column[v])
		}
	}
	for _, u := range gm.U2 {
		if gm.Column[u] != p.L {
			t.Fatalf("U2 node %d in column %d", u, gm.Column[u])
		}
	}
}

func TestGammaRejectsBadInput(t *testing.T) {
	p := GammaParams{K: 2, L: 3, W: 5}
	if _, err := BuildGamma(p, make([]bool, 3), make([]bool, 4)); err == nil {
		t.Fatal("accepted wrong-length inputs")
	}
	if _, err := BuildGamma(GammaParams{K: 0, L: 3, W: 5}, nil, nil); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestLemma71Exhaustive(t *testing.T) {
	// k = 2 (4-bit universe): all 256 (a, b) combinations.
	p := GammaParams{K: 2, L: 3, W: 9}
	for am := 0; am < 16; am++ {
		for bm := 0; bm < 16; bm++ {
			a := bitsOf(am, 4)
			b := bitsOf(bm, 4)
			if err := VerifyLemma71(p, a, b); err != nil {
				t.Fatalf("a=%04b b=%04b: %v", am, bm, err)
			}
		}
	}
}

func TestLemma72Exhaustive(t *testing.T) {
	for am := 0; am < 16; am++ {
		for bm := 0; bm < 16; bm++ {
			if err := VerifyLemma72(2, 4, bitsOf(am, 4), bitsOf(bm, 4)); err != nil {
				t.Fatalf("a=%04b b=%04b: %v", am, bm, err)
			}
		}
	}
}

func bitsOf(mask, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = mask&(1<<i) != 0
	}
	return out
}

func TestLemma71RandomLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := GammaParams{K: 5, L: 6, W: 20}
	for trial := 0; trial < 10; trial++ {
		a, b := RandomInstance(p.Bits(), 0.3, trial%2 == 1, rng)
		if err := VerifyLemma71(p, a, b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLemma72RandomLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		a, b := RandomInstance(16, 0.4, trial%2 == 0, rng)
		if err := VerifyLemma72(4, 5, a, b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLemma71RequiresWGreaterL(t *testing.T) {
	p := GammaParams{K: 2, L: 5, W: 5}
	if err := VerifyLemma71(p, make([]bool, 4), make([]bool, 4)); err == nil {
		t.Fatal("W <= ℓ should be rejected")
	}
}

func TestRandomInstanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := RandomInstance(100, 0.3, false, rng)
	if !Disjoint(a, b) {
		t.Fatal("unforced instance should be disjoint by construction")
	}
	a, b = RandomInstance(100, 0.3, true, rng)
	if Disjoint(a, b) {
		t.Fatal("forced instance must intersect")
	}
}

func TestGammaSizing(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		k, l := GammaSizing(n)
		p := GammaParams{K: k, L: l, W: int64(l) + 1}
		got := p.N()
		if got < n/2 || got > 2*n {
			t.Fatalf("GammaSizing(%d) -> k=%d l=%d builds N=%d, want within [n/2, 2n]", n, k, l, got)
		}
	}
}

func TestDiameterRoundLBMonotone(t *testing.T) {
	prev := 0.0
	for _, n := range []int{100, 1000, 10000, 100000} {
		lb := DiameterRoundLB(n)
		if lb <= prev {
			t.Fatalf("DiameterRoundLB not increasing at n=%d", n)
		}
		prev = lb
	}
	// Spot value: (1e6 / 20²)^(1/3) ≈ 13.6.
	if lb := DiameterRoundLB(1 << 20); lb < 10 || lb > 20 {
		t.Fatalf("DiameterRoundLB(2^20) = %v, want ~13.6", lb)
	}
}

func TestFig1StructureAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Fig1Params{K: 12, L: 4, PathLen: 40}
	inS1 := make([]bool, p.K)
	for i := range inS1 {
		inS1[i] = rng.Intn(2) == 0
	}
	f, err := BuildFig1(p, inS1)
	if err != nil {
		t.Fatal(err)
	}
	if f.G.N() != p.N() {
		t.Fatalf("N = %d, want %d", f.G.N(), p.N())
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// The gap defeats approximations up to (PathLen+1)/(L+1).
	if gap := f.ApproxGap(); gap < 8 {
		t.Fatalf("ApproxGap = %v, want > 8 for these params", gap)
	}
}

func TestFig1RejectsBadParams(t *testing.T) {
	if _, err := BuildFig1(Fig1Params{K: 2, L: 10, PathLen: 5}, make([]bool, 2)); err == nil {
		t.Fatal("PathLen <= L should be rejected")
	}
	if _, err := BuildFig1(Fig1Params{K: 2, L: 1, PathLen: 5}, make([]bool, 3)); err == nil {
		t.Fatal("wrong assignment length should be rejected")
	}
}

func TestEntropyBits(t *testing.T) {
	// log2 C(k, k/2) ≈ k - 0.5 log2(k) - 0.5 log2(pi/2); check it is close
	// to k for moderate k.
	for _, k := range []int{16, 64, 256} {
		e := EntropyBits(k)
		if e < float64(k)-2*math.Log2(float64(k)) || e > float64(k) {
			t.Fatalf("EntropyBits(%d) = %v implausible", k, e)
		}
	}
}

func TestBoundArithmetic(t *testing.T) {
	// The Theorem 1.5 argument: entropy / path capacity rounds lower bound
	// must be Θ~(sqrt k).
	n := 4096
	k := n / 2
	l := int(math.Ceil(math.Sqrt(float64(k))))
	rounds := EntropyBits(k) / PathCapacityBits(l, n, 1)
	ratio := rounds / math.Sqrt(float64(k))
	// rounds ≈ k/(sqrt(k) log²n) = sqrt(k)/log²n.
	wantRatio := 1 / math.Pow(math.Log2(float64(n)), 2)
	if ratio < wantRatio/4 || ratio > wantRatio*4 {
		t.Fatalf("bound arithmetic off: rounds/sqrt(k) = %v, want ~%v", ratio, wantRatio)
	}
}

func TestFig1AliceCut(t *testing.T) {
	f, err := BuildFig1(Fig1Params{K: 6, L: 3, PathLen: 20}, make([]bool, 6))
	if err != nil {
		t.Fatal(err)
	}
	cut := f.AliceCut()
	count := 0
	for _, c := range cut {
		if c {
			count++
		}
	}
	if count != f.Params.L+1 {
		t.Fatalf("Alice side has %d nodes, want L+1 = %d", count, f.Params.L+1)
	}
}

func TestGammaAliceCut(t *testing.T) {
	p := GammaParams{K: 2, L: 6, W: 8}
	gm, err := BuildGamma(p, make([]bool, 4), make([]bool, 4))
	if err != nil {
		t.Fatal(err)
	}
	cut := gm.AliceCut()
	// V-side cliques and v̂ must be on Alice's side; U-side and û on Bob's.
	for _, v := range append(append([]int{}, gm.V1...), gm.VHat) {
		if !cut[v] {
			t.Fatalf("node %d (column 0) not on Alice side", v)
		}
	}
	for _, u := range append(append([]int{}, gm.U1...), gm.UHat) {
		if cut[u] {
			t.Fatalf("node %d (column L) on Alice side", u)
		}
	}
}

// Property: the dichotomy of Lemma 7.2 holds for random instances and
// random small sizes.
func TestQuickLemma72(t *testing.T) {
	f := func(seed int64, kRaw, lRaw uint8) bool {
		k := 2 + int(kRaw%3)
		l := 3 + int(lRaw%4)
		rng := rand.New(rand.NewSource(seed))
		a, b := RandomInstance(k*k, 0.35, seed%2 == 0, rng)
		return VerifyLemma72(k, l, a, b) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
