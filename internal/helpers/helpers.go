// Package helpers implements Algorithm 1 of the paper (Compute-Helpers):
// given a set W ⊆ V (each node knows whether it belongs), build a family of
// helper sets {H_w | w ∈ W} satisfying Definition 2.1:
//
//	(1) each H_w has size at least µ,
//	(2) every helper is within O~(µ) hops of its w,
//	(3) every node joins at most O~(1) helper sets.
//
// The construction follows §2.1: compute a (2µ+1, 2µ⌈log n⌉)-ruling set,
// cluster every node with its closest ruler (ties to the smaller ID, which
// keeps clusters connected), learn the full membership of the own cluster by
// local flooding, then join H_w for every w ∈ W in the own cluster
// independently with probability q = min(QBoost·2µ/|C|, 1).
//
// QBoost is a constant-factor tuning knob (paper: 1, i.e. q = 2µ/|C|; we
// default to 2) — Lemma 2.2's w.h.p. guarantees are asymptotic, and the
// boost makes property (1) hold robustly at the laptop-scale n the
// experiment suite runs; it does not change any asymptotic cost because it
// only scales E[|H_w|] and the O~(1) membership count by a constant.
package helpers

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/ruling"
	"repro/internal/sim"
)

// clusterWave announces a ruler through the local network: two words, a
// ruler ID and a hop distance.
type clusterWave struct {
	Ruler int
	Dist  int
}

// Result is what one node knows after Machine finishes.
type Result struct {
	// Ruler is the ID of this node's cluster ruler; RulerDist its hop
	// distance.
	Ruler     int
	RulerDist int
	// Members lists all nodes of this cluster, sorted by ID; WMembers its
	// W-nodes. The cluster's members share one copy of each (sim.Agreed
	// on the flood that taught them): read-only.
	Members  []int
	WMembers []int
	// Helps lists the w ∈ W whose helper set H_w this node joined, sorted.
	Helps []int
	// InW records the node's own membership in W.
	InW bool
	// Mu echoes the effective µ parameter.
	Mu int
}

// Params tunes the constants.
type Params struct {
	// QBoost scales the join probability q = min(QBoost*2µ/|C|, 1).
	// Zero means 2.
	QBoost int
	// Clusters, if non-nil, reuses the seed-independent cluster structure
	// (ruling set, ruler assignment, member directories — all deterministic
	// functions of the graph and µ) across constructions with the same µ,
	// paying one 2·ceil(log2 n)-round collective agreement plus a 2β-round
	// W-membership flood instead of the full ruling-set, cluster-formation
	// and member-flood phases on a hit. See ClusterCache.
	Clusters *ClusterCache
}

func (p Params) withDefaults() Params {
	if p.QBoost <= 0 {
		p.QBoost = 2
	}
	return p
}

// Rounds returns the exact round count of an uncached Machine for given n
// and µ: the ruling set plus β rounds of cluster formation plus 2β rounds
// of member flooding, β = 2µ⌈log n⌉ (matching Algorithm 1's loop bounds).
func Rounds(n, mu int) int {
	if mu < 1 {
		mu = 1
	}
	beta := 2 * mu * sim.Log2Ceil(n)
	return ruling.Rounds(n, mu) + beta + 2*beta
}

// Machine is Algorithm 1 as a collective machine (sim.StepProgram), built
// from the ruling-set machine and two flood loops. After it finishes, Res
// holds the node's helper-family view.
type Machine struct {
	// Res is this node's Algorithm 1 output; valid once Step returned true.
	Res Result

	prog sim.StepProgram
}

// NewMachine builds the collective Algorithm 1 machine; all nodes must
// start it in the same round with the same µ and params. Without a cluster
// cache it takes exactly Rounds(n, µ) rounds and uses only the local
// network. With params.Clusters set it is the cluster-cached construction
// (warm.Guard): a hit is the structural shortcut (cached ruler assignment
// and member directory, the 2β-round W flood, fresh helper sampling), a miss
// the full build (see ClusterCache).
func NewMachine(env *sim.Env, inW bool, mu int, params Params) *Machine {
	p := params.withDefaults()
	if mu < 1 {
		mu = 1
	}
	m := &Machine{}
	if p.Clusters == nil {
		m.prog = newColdProg(env, m, inW, mu, p)
		return m
	}
	m.prog = p.Clusters.Guard(mu,
		func(e *clusterEntry) bool { return !e.filled[env.ID()] },
		func(env *sim.Env, e *clusterEntry) sim.StepProgram {
			ruler, dist, members := e.bind(env.ID())
			wf := newWFlood(env, inW, ruler, 2*clusterBeta(env.N(), mu))
			// The cached phases are deterministic and sampleHelps draws the
			// same randomness, so this is exactly the cold result.
			return sim.Then(wf, func(env *sim.Env) {
				wMembers := agreedOrigins(env, listKey{mu, ruler, true}, wf)
				m.Res = Result{Ruler: ruler, RulerDist: dist, Members: members, WMembers: wMembers, InW: inW, Mu: mu}
				m.Res.Helps = sampleHelps(env, p, mu, len(members), wMembers)
			})
		},
		func(env *sim.Env) sim.StepProgram { return newColdProg(env, m, inW, mu, p) },
		func(env *sim.Env, e *clusterEntry) { e.store(env.ID(), m.Res) },
	)
	return m
}

// newColdProg is the uncached Algorithm 1 construction — the ruling set,
// cluster formation, member flooding, and helper sampling — writing the
// finished result to m.Res.
func newColdProg(env *sim.Env, m *Machine, inW bool, mu int, p Params) sim.StepProgram {
	n := env.N()
	beta := 2 * mu * sim.Log2Ceil(n)

	var rule *ruling.Machine
	// Phase 2, cluster formation: rulers start waves; every node tracks the
	// lexicographically smallest (dist, rulerID) it has heard and forwards
	// improvements. β rounds reach every node (domination radius). Waves
	// broadcast as pointers into a rotated pair so the hot loop stages no
	// fresh interface payloads; the slot sent at round r is not rewritten
	// before r+2 (see the delta-buffer comment on skeleton.ExploreMachine
	// for the ownership argument).
	bestDist, bestRuler := n+1, -1
	improved := false
	var waveBuf [2]clusterWave
	// Phase 3: learn all members of the own cluster. Nodes flood records of
	// their own cluster for 2β rounds (intra-cluster diameter bound). A record
	// is the member's ID, its ruler (the flood's scope) and, for free, its
	// InW bit.
	var members flood.State[bool]
	var wMembers []int

	return sim.Sequence(
		func(env *sim.Env) sim.StepProgram {
			rule = ruling.NewMachine(env, mu)
			return rule
		},
		func(env *sim.Env) sim.StepProgram {
			if rule.InSet {
				bestDist, bestRuler = 0, env.ID()
				improved = true
			}
			return &sim.Loop{
				Rounds:   beta,
				NextSend: sim.Reactive, // a wave goes out only after an improvement arrived
				Send: func(env *sim.Env, i int) {
					if improved {
						waveBuf[i&1] = clusterWave{Ruler: bestRuler, Dist: bestDist}
						env.BroadcastLocalWords(&waveBuf[i&1], 2)
						improved = false
					}
				},
				Recv: func(env *sim.Env, in sim.Inbox, i int) {
					for _, lm := range in.Local {
						w, ok := lm.Payload.(*clusterWave)
						if !ok {
							continue
						}
						d := w.Dist + 1
						if d < bestDist || (d == bestDist && w.Ruler < bestRuler) {
							bestDist, bestRuler = d, w.Ruler
							improved = true
						}
					}
				},
			}
		},
		func(env *sim.Env) sim.StepProgram {
			members.Start(env, bestRuler, 2*beta, recWords, func(id int, w bool) {
				if w {
					wMembers = append(wMembers, id)
				}
			})
			members.Inject(env.ID(), inW)
			return &members
		},
		sim.Finish(func(env *sim.Env) {
			wMembers = sim.Agreed(env, listKey{mu, bestRuler, true},
				func(l []int) bool { return sortedListOf(l, wMembers) },
				func() []int { sort.Ints(wMembers); return wMembers })
			all := agreedOrigins(env, listKey{mu, bestRuler, false}, &members)
			m.Res = Result{Ruler: bestRuler, RulerDist: bestDist, Members: all, WMembers: wMembers, InW: inW, Mu: mu}
			m.Res.Helps = sampleHelps(env, p, mu, len(all), wMembers)
		}),
	)
}

// Step implements sim.StepProgram.
func (m *Machine) Step(env *sim.Env) bool { return m.prog.Step(env) }

// Pipeline returns Algorithm 1 as a sim.Pipeline: inW[v] marks the members
// of W, and the per-node result is the node's Result.
func Pipeline(inW []bool, mu int, params Params) sim.Pipeline[Result] {
	return func(env *sim.Env, done func(Result)) sim.StepProgram {
		m := NewMachine(env, inW[env.ID()], mu, params)
		return sim.Then(m, func(*sim.Env) { done(m.Res) })
	}
}

// listKey is the sim.Agreed slot of a cluster's sorted member list (w false)
// or W-member list: for a fixed graph the clustering is a function of µ, so
// (µ, ruler) names the cluster. Which W the list is of, the slot does not say:
// a held list is a node's iff it is exactly the IDs that node's flood heard.
type listKey struct {
	mu, ruler int
	w         bool
}

// agreedOrigins lists the origins f heard, in ascending order: one list for all
// the nodes whose flood heard exactly the same ones.
func agreedOrigins[P any](env *sim.Env, key listKey, f *flood.State[P]) []int {
	return sim.Agreed(env, key, f.OriginsAre, func() []int { return f.AppendOrigins(nil) })
}

// sortedListOf reports whether sorted, an ascending list of distinct IDs, lists
// exactly ids, distinct IDs in any order (here: arrival order): it does iff it
// is as long and holds each of them.
func sortedListOf(sorted, ids []int) bool {
	if len(sorted) != len(ids) {
		return false
	}
	for _, id := range ids {
		if _, ok := slices.BinarySearch(sorted, id); !ok {
			return false
		}
	}
	return true
}

// recWords charges one member or W record: an ID and a ruler ID.
func recWords[P any](P) int64 { return 2 }

// sampleHelps runs phase 4 of Algorithm 1: sample helper memberships with
// q = min(QBoost*2µ/|C|, 1). Every w ∈ W additionally joins its own helper
// set deterministically: that guarantees H_w is never empty even when the
// w.h.p. sampling bound fails at small n, costs each node at most one
// extra membership, and keeps properties (1)-(3) intact (hop(w,w) = 0).
// Shared by the cold and cluster-cached paths; it consumes exactly one
// random draw per non-self W member below the saturation bound, so the
// rand-stream position after the machine is identical whichever path ran.
func sampleHelps(env *sim.Env, p Params, mu, clusterSize int, wMembers []int) []int {
	num := p.QBoost * 2 * mu
	var helps []int
	for _, w := range wMembers {
		if w == env.ID() || num >= clusterSize || env.Rand().Intn(clusterSize) < num {
			helps = append(helps, w)
		}
	}
	return helps
}

// CheckFamily verifies Definition 2.1 over a full set of per-node results
// sequentially. results[v] is node v's Result; membership of node x in H_w
// means w ∈ results[x].Helps. maxLoadFactor bounds property (3) as
// |{w : x ∈ H_w}| <= maxLoadFactor * ceil(log2 n); radiusFactor bounds
// property (2) as hop(w, x) <= radiusFactor * µ * ceil(log2 n).
func CheckFamily(g *graph.Graph, results []Result, mu int, maxLoadFactor, radiusFactor int) error {
	n := g.N()
	if len(results) != n {
		return fmt.Errorf("helpers: %d results for %d nodes", len(results), n)
	}
	logN := sim.Log2Ceil(n)

	// Collect H_w from the per-node Helps lists.
	hw := map[int][]int{}
	for x := 0; x < n; x++ {
		for _, w := range results[x].Helps {
			hw[w] = append(hw[w], x)
		}
		if load := len(results[x].Helps); load > maxLoadFactor*logN {
			return fmt.Errorf("helpers: node %d helps %d sets, cap %d (property 3)", x, load, maxLoadFactor*logN)
		}
	}
	for w := 0; w < n; w++ {
		if !results[w].InW {
			if len(hw[w]) > 0 {
				return fmt.Errorf("helpers: node %d not in W but has helpers", w)
			}
			continue
		}
		set := hw[w]
		if len(set) < mu {
			return fmt.Errorf("helpers: |H_%d| = %d < µ = %d (property 1)", w, len(set), mu)
		}
		d := graph.BFS(g, w)
		for _, x := range set {
			if d[x] > int64(radiusFactor*mu*logN) {
				return fmt.Errorf("helpers: helper %d of %d is %d hops away, cap %d (property 2)",
					x, w, d[x], radiusFactor*mu*logN)
			}
		}
	}
	return nil
}

// ClusterCheck verifies the clustering invariants: every node is assigned
// the (dist, id)-lexicographically closest ruler and clusters have size at
// least µ+1 when n > µ.
func ClusterCheck(g *graph.Graph, results []Result, mu int) error {
	n := g.N()
	rulers := map[int]bool{}
	for v := 0; v < n; v++ {
		rulers[results[v].Ruler] = true
	}
	sizes := map[int]int{}
	for v := 0; v < n; v++ {
		sizes[results[v].Ruler]++
	}
	for r := range rulers {
		if results[r].Ruler != r {
			return fmt.Errorf("helpers: ruler %d assigned to cluster %d", r, results[r].Ruler)
		}
		if n > mu && sizes[r] < mu+1 {
			return fmt.Errorf("helpers: cluster %d has %d members, want >= µ+1 = %d", r, sizes[r], mu+1)
		}
	}
	for v := 0; v < n; v++ {
		d := graph.BFS(g, v)
		bestDist, bestRuler := int64(n+1), -1
		for r := range rulers {
			if d[r] < bestDist || (d[r] == bestDist && r < bestRuler) {
				bestDist, bestRuler = d[r], r
			}
		}
		if results[v].Ruler != bestRuler || int64(results[v].RulerDist) != bestDist {
			return fmt.Errorf("helpers: node %d joined (%d,%d), closest is (%d,%d)",
				v, results[v].Ruler, results[v].RulerDist, bestRuler, bestDist)
		}
	}
	return nil
}
