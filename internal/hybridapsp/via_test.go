package hybridapsp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/skeleton"
)

// viaCase is the local input of the three minimums over nearby skeleton
// nodes on one random weighted graph: a random skeleton with d_S the exact
// APSP of a random graph over it, each node's nearby skeleton nodes
// (estimates at or a little above the true distance, and now and then a
// node outside the member list), the label vectors of Theorem 1.1's flood
// — each node's full-minimum arming values, with holes punched into some
// and some not heard at every node — and a [3] label matrix with holes.
type viaCase struct {
	n        int
	sk       *skeletonAPSP
	near     [][]skeleton.Heard
	labels   []skeleton.Labels // per node: the vectors it heard
	complete []bool
	lab      []int64
	local    [][]int64
}

func newViaCase(rng *rand.Rand) *viaCase {
	n := 20 + rng.Intn(40)
	g := graph.WithRandomWeights(graph.SparseConnected(n, 1.3, rng), 1+rng.Int63n(12), rng)
	d := graph.APSP(g)
	c := &viaCase{n: n, sk: &skeletonAPSP{Rank: map[int]int{}}, complete: make([]bool, n)}
	for _, v := range rng.Perm(n)[:3+rng.Intn(n/2)] {
		c.sk.Members = append(c.sk.Members, v)
	}
	slices.Sort(c.sk.Members)
	k := len(c.sk.Members)
	s := graph.New(k)
	for i, a := range c.sk.Members {
		c.sk.Rank[a] = i
		for j := i + 1; j < k; j++ {
			if rng.Intn(3) == 0 {
				s.MustAddEdge(i, j, d[a][c.sk.Members[j]]+rng.Int63n(3))
			}
		}
	}
	c.sk.DS = graph.APSP(s)
	outsider := -1
	for v := 0; v < n && outsider < 0; v++ {
		if _, ok := c.sk.Rank[v]; !ok {
			outsider = v
		}
	}
	c.near = make([][]skeleton.Heard, n)
	for u := range n {
		for v := range n {
			_, member := c.sk.Rank[v]
			if (member && rng.Intn(5) < 3) || (v == outsider && rng.Intn(4) == 0) {
				c.near[u] = append(c.near[u], skeleton.Heard{ID: int32(v), Dist: d[u][v] + rng.Int63n(3)})
			}
		}
	}
	vecs := make([][]int64, n)
	for j, a := range c.sk.Members {
		vecs[a] = make([]int64, n)
		for u := range n {
			vecs[a][u] = fullArmed(c.sk, c.near[u], j)
		}
	}
	if outsider >= 0 {
		vecs[outsider] = make([]int64, n)
		for u := range n {
			vecs[outsider][u] = d[outsider][u] + rng.Int63n(2)
		}
	}
	for a, vec := range vecs {
		if vec == nil {
			continue
		}
		if rng.Intn(3) == 0 {
			for range 1 + rng.Intn(n/4) {
				vec[rng.Intn(n)] = -1
			}
		}
		c.complete[a] = !slices.Contains(vec, -1)
	}
	c.labels = make([]skeleton.Labels, n)
	for u := range n {
		for a, vec := range vecs {
			if vec != nil && rng.Intn(8) != 0 {
				c.labels[u].Put(uint64(a), vec)
			}
		}
	}
	c.lab = make([]int64, k*n)
	for j, a := range c.sk.Members {
		for u := range n {
			if c.lab[j*n+u] = d[u][a] + rng.Int63n(2); rng.Intn(5) == 0 {
				c.lab[j*n+u] = -1
			}
		}
	}
	c.local = make([][]int64, n)
	for u := range n {
		c.local[u] = make([]int64, n)
		for v := range n {
			if c.local[u][v] = graph.Inf; rng.Intn(3) == 0 {
				c.local[u][v] = d[u][v] + rng.Int63n(4)
			}
		}
	}
	return c
}

// fullArmed is the arming's minimum over every nearby member.
func fullArmed(sk *skeletonAPSP, near []skeleton.Heard, x int) int64 {
	best := graph.Inf
	for _, s := range near {
		if i, ok := sk.Rank[int(s.ID)]; ok {
			best = min(best, graph.SatAdd(s.Dist, sk.DS[i][x]))
		}
	}
	return best
}

// fullCombine is the final combine over every nearby skeleton node whose
// vector was heard, skipping holes.
func fullCombine(out []int64, near []skeleton.Heard, labels *skeleton.Labels) {
	for _, s := range near {
		vec, ok := labels.Get(uint64(s.ID))
		if !ok {
			continue
		}
		for v, dv := range vec {
			if dv >= 0 {
				out[v] = min(out[v], graph.SatAdd(s.Dist, dv))
			}
		}
	}
}

// fullLabels is the [3] baseline's combine over every pair of a nearby
// member and a member, skipping holes.
func fullLabels(out []int64, sk *skeletonAPSP, near []skeleton.Heard, lab []int64) {
	n := len(out)
	for _, s1 := range near {
		i, ok := sk.Rank[int(s1.ID)]
		if !ok {
			continue
		}
		for j := range sk.Members {
			for v, dv := range lab[j*n : (j+1)*n] {
				if dv >= 0 {
					out[v] = min(out[v], graph.SatAdd(graph.SatAdd(s1.Dist, sk.DS[i][j]), dv))
				}
			}
		}
	}
}

// TestViaSetExact: on random inputs, the arming, the final combine and the
// baseline's combine over the via-set equal the same minimums over every
// nearby skeleton node, for every node and target. The inputs must exercise
// the pruning — via-sets smaller than the near lists — and the combine's
// precondition: an incomplete vector that would dominate another entry by
// the distance rule alone (letting it dominate gives wrong answers there).
func TestViaSetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var nears, vias, holeDominators int
	for trial := range 40 {
		c := newViaCase(rng)
		for u := range c.n {
			armVias := c.sk.viaSet(nil, c.near[u], nil, nil)
			for x := range c.sk.Members {
				if got, want := c.sk.armed(armVias, x), fullArmed(c.sk, c.near[u], x); got != want {
					t.Fatalf("trial %d, node %d: armed value for member rank %d = %d, want %d", trial, u, x, got, want)
				}
			}

			combVias := c.sk.viaSet(nil, c.near[u], &c.labels[u], c.complete)
			got, want := slices.Clone(c.local[u]), slices.Clone(c.local[u])
			combine(got, combVias)
			fullCombine(want, c.near[u], &c.labels[u])
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, node %d: combine over %d vias gives %v, over all %d nearby %v", trial, u, len(combVias), got, len(c.near[u]), want)
			}

			got, want = slices.Clone(c.local[u]), slices.Clone(c.local[u])
			c.sk.combineLabels(got, armVias, c.lab)
			fullLabels(want, c.sk, c.near[u], c.lab)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, node %d: baseline combine over %d vias gives %v, over all nearby %v", trial, u, len(armVias), got, want)
			}

			nears += len(c.near[u])
			vias += len(combVias)
			for _, tt := range c.near[u] {
				ti, member := c.sk.Rank[int(tt.ID)]
				if _, heard := c.labels[u].Get(uint64(tt.ID)); !member || !heard || c.complete[tt.ID] {
					continue
				}
				for _, s := range c.near[u] {
					if si, ok := c.sk.Rank[int(s.ID)]; ok && s.ID != tt.ID && graph.SatAdd(tt.Dist, c.sk.DS[ti][si]) <= s.Dist {
						holeDominators++
						break
					}
				}
			}
		}
	}
	if vias >= nears || holeDominators == 0 {
		t.Fatalf("the inputs do not exercise the pruning: %d vias of %d nearby entries, %d incomplete would-be dominators", vias, nears, holeDominators)
	}
	t.Logf("%d vias of %d nearby entries; %d incomplete would-be dominators", vias, nears, holeDominators)
}

// TestViaSetZeroAlloc: building a via-set in a caller's stack buffer and
// running the three minimums over it allocates nothing. Each node builds
// two per APSP run, so a heap-allocated set would cost every run 2n
// allocations.
func TestViaSetZeroAlloc(t *testing.T) {
	c := newViaCase(rand.New(rand.NewSource(1)))
	u := 0
	for v := range c.n {
		if len(c.near[v]) > len(c.near[u]) {
			u = v
		}
	}
	out := slices.Clone(c.local[u])
	allocs := testing.AllocsPerRun(100, func() {
		var buf [viaBuf]via
		combine(out, c.sk.viaSet(buf[:0], c.near[u], &c.labels[u], c.complete))
		vias := c.sk.viaSet(buf[:0], c.near[u], nil, nil)
		for x := range c.sk.Members {
			out[x%len(out)] = min(out[x%len(out)], c.sk.armed(vias, x))
		}
		c.sk.combineLabels(out, vias, c.lab)
	})
	if allocs != 0 {
		t.Fatalf("via-set and combines allocate %v times per node, want 0", allocs)
	}
}
