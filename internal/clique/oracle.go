package clique

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// Oracle is the declared-cost adapter: it stands in for a published CLIQUE
// algorithm A with runtime T_A = ceil(Eta * q^Delta) and approximation
// quality (Alpha, Beta) — e.g. the (1+ε) k-SSP of Censor-Hillel et al. [7]
// (Delta = 0, Eta = 1/ε) or the ρ-exponent APSP of [8] (Delta = 0.15715).
//
// The paper's Theorems 4.1 and 5.1 consume A as a black box parameterized
// by (α, β, δ, η); the oracle lets the HYBRID-side framework be exercised
// and measured with exactly the published exponents without reimplementing
// fast distributed matrix multiplication. It charges the declared number of
// rounds while exchanging no messages, and produces outputs that satisfy
// the declared (α, β) guarantee — either exact distances or deterministic
// pseudo-random perturbations within the allowed envelope (PerturbSeed != 0)
// to stress the framework's error compounding end to end.
//
// This is the one deliberately non-distributed component of the repository
// (inputs are pooled across the oracle's nodes); the kssp and diameter
// corollaries that plug it in name the published algorithm it stands for.
type Oracle struct {
	q       int
	rounds  int
	sources []int

	alpha       float64
	beta        int64
	perturbSeed int64
	diameter    bool

	mu     sync.Mutex
	adj    [][]graph.Neighbor
	once   sync.Once
	solved [][]int64
	diam   int64
}

// CostModel declares the published runtime T_A = ceil(Eta * q^Delta),
// at least 1.
type CostModel struct {
	Delta float64
	Eta   float64
}

// Rounds evaluates the model for q nodes.
func (c CostModel) Rounds(q int) int {
	eta := c.Eta
	if eta <= 0 {
		eta = 1
	}
	r := int(math.Ceil(eta * math.Pow(float64(q), c.Delta)))
	if r < 1 {
		r = 1
	}
	return r
}

// Quality declares the published approximation guarantee: outputs d~ with
// d <= d~ <= Alpha*d + Beta.
type Quality struct {
	Alpha float64
	Beta  int64
	// PerturbSeed != 0 makes the oracle emit pseudo-random values inside
	// the (Alpha, Beta) envelope instead of exact distances.
	PerturbSeed int64
}

// NewOracle creates the adapter. sources selects the k-SSP source list
// (nil = all nodes, i.e. APSP). withDiameter additionally publishes a
// diameter estimate under the same quality envelope.
func NewOracle(q int, sources []int, cost CostModel, quality Quality, withDiameter bool) *Oracle {
	if sources == nil {
		sources = make([]int, q)
		for i := range sources {
			sources[i] = i
		}
	}
	if quality.Alpha < 1 {
		quality.Alpha = 1
	}
	return &Oracle{
		q:           q,
		rounds:      cost.Rounds(q),
		sources:     append([]int(nil), sources...),
		alpha:       quality.Alpha,
		beta:        quality.Beta,
		perturbSeed: quality.PerturbSeed,
		diameter:    withDiameter,
		adj:         make([][]graph.Neighbor, q),
	}
}

// Q returns the node count.
func (a *Oracle) Q() int { return a.q }

// Rounds returns the declared runtime.
func (a *Oracle) Rounds() int { return a.rounds }

// Sources returns the source list.
func (a *Oracle) Sources() []int { return a.sources }

// Schedule is empty: the oracle only charges rounds.
func (a *Oracle) Schedule(r, p int) []Slot { return nil }

// NewNode registers node p's input and returns its handle.
func (a *Oracle) NewNode(p int, adj []graph.Neighbor) Node {
	a.mu.Lock()
	a.adj[p] = adj
	a.mu.Unlock()
	return &oracleNode{alg: a, self: p}
}

// solve pools the registered inputs and computes the published outputs.
func (a *Oracle) solve() {
	a.once.Do(func() {
		g := graph.New(a.q)
		for p, adj := range a.adj {
			for _, nb := range adj {
				if p < nb.To {
					// Ignore duplicates defensively; inputs are symmetric.
					if !g.HasEdge(p, nb.To) {
						g.MustAddEdge(p, nb.To, nb.W)
					}
				}
			}
		}
		a.solved = make([][]int64, a.q)
		exact := make([][]int64, len(a.sources))
		for si, s := range a.sources {
			exact[si] = graph.Dijkstra(g, s)
		}
		var rng *rand.Rand
		if a.perturbSeed != 0 {
			rng = rand.New(rand.NewSource(a.perturbSeed))
		}
		// Per-source perturbation factors keep d <= d~ <= alpha*d + beta and
		// are consistent across all reading nodes.
		factors := make([]float64, len(a.sources))
		addends := make([]int64, len(a.sources))
		for si := range a.sources {
			factors[si] = 1
			if rng != nil {
				factors[si] = 1 + rng.Float64()*(a.alpha-1)
				if a.beta > 0 {
					addends[si] = rng.Int63n(a.beta + 1)
				}
			}
		}
		for p := 0; p < a.q; p++ {
			row := make([]int64, len(a.sources))
			for si := range a.sources {
				d := exact[si][p]
				if d >= graph.Inf {
					row[si] = graph.Inf
				} else {
					row[si] = int64(math.Floor(float64(d)*factors[si])) + addends[si]
				}
			}
			a.solved[p] = row
		}
		trueDiam := int64(0)
		for si := range a.sources {
			for p := 0; p < a.q; p++ {
				if d := exact[si][p]; d < graph.Inf && d > trueDiam {
					trueDiam = d
				}
			}
		}
		// Without all sources the max over rows underestimates the diameter;
		// the diameter oracle is only meaningful for APSP-source lists.
		a.diam = trueDiam
		if rng != nil {
			a.diam = int64(math.Floor(float64(trueDiam)*(1+rng.Float64()*(a.alpha-1)))) + addends[0]
		}
	})
}

type oracleNode struct {
	alg  *Oracle
	self int
	out  []int64
	diam int64
}

func (n *oracleNode) Send(r int) []Value { return nil }

func (n *oracleNode) Recv(r int, in []Incoming) {
	if r == n.alg.rounds-1 {
		n.alg.solve()
		n.out = n.alg.solved[n.self]
		n.diam = n.alg.diam
	}
}

// Distances returns the (α, β)-quality outputs aligned with Sources().
func (n *oracleNode) Distances() []int64 { return n.out }

// Diameter returns the published diameter estimate.
func (n *oracleNode) Diameter() int64 { return n.diam }

var (
	_ DistanceAlgorithm = (*Oracle)(nil)
	_ DistanceNode      = (*oracleNode)(nil)
	_ DiameterNode      = (*oracleNode)(nil)
)
