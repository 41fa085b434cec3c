// Package lowerbound implements the paper's lower-bound apparatus (§6, §7):
// the Figure 1 worst-case graph behind the Ω~(sqrt k) k-SSP bound
// (Theorem 1.5), the Figure 2 family Γ^{a,b}_{k,ℓ,W} encoding 2-party set
// disjointness behind the Ω~(n^(1/3)) diameter bound (Theorem 1.6), machine
// verifiers for the structural Lemmas 7.1 and 7.2, the Alice/Bob column cut
// used by the simulation argument (Lemma 7.3), and the bound arithmetic.
//
// Lower bounds cannot be "measured"; what can be machine-checked are their
// two ingredients: the reduction's correctness (diameter gap ⇔ DISJ — a
// graph property verified exactly) and the information bottleneck (global
// bits crossing the Alice/Bob cut — instrumented by sim.Config.Cut).
package lowerbound

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// GammaParams sizes Γ^{a,b}_{k,ℓ,W} (Figure 2): four k-cliques, matching
// paths of ℓ hops, clique/attachment edges of weight W.
type GammaParams struct {
	K int
	L int
	W int64
}

// N returns the node count of the construction:
// 4k clique nodes + 2k matching paths with ℓ-1 interior nodes each +
// v̂, û + their connecting path's ℓ-1 interior nodes.
func (p GammaParams) N() int {
	return 4*p.K + 2*p.K*(p.L-1) + 2 + (p.L - 1)
}

// Bits returns the size k² of the encoded set-disjointness universe.
func (p GammaParams) Bits() int { return p.K * p.K }

// Gamma is one built instance.
type Gamma struct {
	G      *graph.Graph
	Params GammaParams
	// V1, V2, U1, U2 are the four k-sets; VHat and UHat the apex nodes.
	V1, V2, U1, U2 []int
	VHat, UHat     int
	// Column of each node: 0 = V-side cliques + v̂, L = U-side cliques + û,
	// 1..L-1 the path interiors (Lemma 7.3's simulation columns).
	Column []int
}

// AliceCut returns the bipartition for cut accounting: true for nodes in
// columns 0..L/2-1 (Alice's half in the Lemma 7.3 simulation).
func (g *Gamma) AliceCut() []bool {
	cut := make([]bool, g.G.N())
	for v, c := range g.Column {
		cut[v] = c < g.Params.L/2
	}
	return cut
}

// BuildGamma constructs Γ^{a,b}_{k,ℓ,W} for disjointness inputs
// a, b ∈ {0,1}^(k²): bit i maps to the pair (V1[i/k], V2[i%k]) resp.
// (U1[i/k], U2[i%k]), consistently with the matchings, and the pair is
// connected by a weight-W edge iff the bit is 0 (paper §7, Figure 2).
func BuildGamma(p GammaParams, a, b []bool) (*Gamma, error) {
	if p.K < 1 || p.L < 1 || p.W < 1 {
		return nil, fmt.Errorf("lowerbound: invalid params %+v", p)
	}
	if len(a) != p.Bits() || len(b) != p.Bits() {
		return nil, fmt.Errorf("lowerbound: inputs must have k^2 = %d bits, got %d and %d", p.Bits(), len(a), len(b))
	}
	g := graph.New(p.N())
	col := make([]int, p.N())
	next := 0
	alloc := func(column int) int {
		id := next
		next++
		col[id] = column
		return id
	}
	mkSet := func(column int) []int {
		out := make([]int, p.K)
		for i := range out {
			out[i] = alloc(column)
		}
		return out
	}
	v1 := mkSet(0)
	v2 := mkSet(0)
	u1 := mkSet(p.L)
	u2 := mkSet(p.L)
	vhat := alloc(0)
	uhat := alloc(p.L)

	clique := func(set []int) {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				g.MustAddEdge(set[i], set[j], p.W)
			}
		}
	}
	clique(v1)
	clique(v2)
	clique(u1)
	clique(u2)

	// ℓ-hop unit-weight path from x to y, interiors in columns 1..L-1.
	path := func(x, y int) {
		prev := x
		for i := 1; i < p.L; i++ {
			mid := alloc(i)
			g.MustAddEdge(prev, mid, 1)
			prev = mid
		}
		g.MustAddEdge(prev, y, 1)
	}
	for i := 0; i < p.K; i++ {
		path(v1[i], u1[i])
		path(v2[i], u2[i])
	}
	// Apexes: v̂ to all of V1 ∪ V2, û to all of U1 ∪ U2, weight W; the blue
	// path v̂ — û with ℓ unit edges.
	for i := 0; i < p.K; i++ {
		g.MustAddEdge(vhat, v1[i], p.W)
		g.MustAddEdge(vhat, v2[i], p.W)
		g.MustAddEdge(uhat, u1[i], p.W)
		g.MustAddEdge(uhat, u2[i], p.W)
	}
	path(vhat, uhat)

	// Input edges: bit = 0 inserts the red edge.
	for i := 0; i < p.Bits(); i++ {
		x, y := i/p.K, i%p.K
		if !a[i] {
			g.MustAddEdge(v1[x], v2[y], p.W)
		}
		if !b[i] {
			g.MustAddEdge(u1[x], u2[y], p.W)
		}
	}
	return &Gamma{
		G: g, Params: p,
		V1: v1, V2: v2, U1: u1, U2: u2,
		VHat: vhat, UHat: uhat,
		Column: col,
	}, nil
}

// Disjoint reports whether no index has a_i = b_i = 1.
func Disjoint(a, b []bool) bool {
	for i := range a {
		if a[i] && b[i] {
			return false
		}
	}
	return true
}

// RandomInstance draws a random disjointness instance over k2 bits with
// roughly density*k2 one-bits per side; if forceIntersect, one shared index
// is set in both.
func RandomInstance(k2 int, density float64, forceIntersect bool, rng *rand.Rand) ([]bool, []bool) {
	a := make([]bool, k2)
	b := make([]bool, k2)
	for i := range a {
		a[i] = rng.Float64() < density
		// Keep the instance disjoint by construction unless forced.
		if !a[i] {
			b[i] = rng.Float64() < density
		}
	}
	if forceIntersect {
		i := rng.Intn(k2)
		a[i], b[i] = true, true
	}
	return a, b
}

// VerifyLemma71 checks the weighted dichotomy: for W > ℓ, DISJ(a,b) iff
// diameter(Γ) <= W+2ℓ, and otherwise diameter >= 2W+ℓ.
func VerifyLemma71(p GammaParams, a, b []bool) error {
	if p.W <= int64(p.L) {
		return fmt.Errorf("lowerbound: Lemma 7.1 requires W > ℓ (got W=%d, ℓ=%d)", p.W, p.L)
	}
	gm, err := BuildGamma(p, a, b)
	if err != nil {
		return err
	}
	d := graph.WeightedDiameter(gm.G)
	low := p.W + 2*int64(p.L)
	high := 2*p.W + int64(p.L)
	if Disjoint(a, b) {
		if d > low {
			return fmt.Errorf("lowerbound: disjoint instance has diameter %d > W+2ℓ = %d", d, low)
		}
		return nil
	}
	if d < high {
		return fmt.Errorf("lowerbound: intersecting instance has diameter %d < 2W+ℓ = %d", d, high)
	}
	return nil
}

// VerifyLemma72 checks the unweighted dichotomy (W = 1): DISJ(a,b) iff
// diameter(Γ) = ℓ+1, else ℓ+2.
func VerifyLemma72(k, l int, a, b []bool) error {
	gm, err := BuildGamma(GammaParams{K: k, L: l, W: 1}, a, b)
	if err != nil {
		return err
	}
	d := graph.HopDiameter(gm.G)
	if Disjoint(a, b) {
		if d != int64(l)+1 {
			return fmt.Errorf("lowerbound: disjoint instance has D = %d, want ℓ+1 = %d", d, l+1)
		}
		return nil
	}
	if d != int64(l)+2 {
		return fmt.Errorf("lowerbound: intersecting instance has D = %d, want ℓ+2 = %d", d, l+2)
	}
	return nil
}

// GammaSizing returns the (k, ℓ) choice of Theorem 1.6's proof for a target
// network size n: ℓ = Θ((n/log²n)^(1/3)) and k·ℓ = Θ(n).
func GammaSizing(n int) (k, l int) {
	logn := math.Log2(math.Max(float64(n), 2))
	l = int(math.Cbrt(float64(n) / (logn * logn)))
	if l < 2 {
		l = 2
	}
	// Solve N(k, l) ~ n for k: n ≈ 2kl + 2k + l.
	k = (n - l - 1) / (2*l + 2)
	if k < 1 {
		k = 1
	}
	return k, l
}

// DiameterRoundLB evaluates the Theorem 1.6 bound Ω((n/log²n)^(1/3)): the
// number of rounds below which any 2/3-success diameter algorithm would
// violate the set-disjointness communication bound. The constant is the
// proof's: Alice and Bob exchange at most cap·msgBits·n bits per simulated
// round, and must exchange k² bits total within ℓ/2 - 1 rounds.
func DiameterRoundLB(n int) float64 {
	logn := math.Log2(math.Max(float64(n), 2))
	return math.Cbrt(float64(n) / (logn * logn))
}
