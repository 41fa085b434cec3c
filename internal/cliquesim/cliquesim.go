// Package cliquesim simulates CLIQUE algorithms on skeleton graphs inside
// the HYBRID model (paper Corollary 4.1 and Algorithm 8):
//
//	"Let S ⊆ V be obtained by sampling each node with probability 1/n^(1-x).
//	 One round of the CLIQUE model can be simulated on S in
//	 O~(n^(2x-1) + n^(x/2)) rounds w.h.p."
//
// The skeleton node set is first made public knowledge with a run of token
// dissemination (O~(sqrt(|S|)) rounds, Lemma B.1), establishing a shared
// index space 0..q-1. Then every CLIQUE round becomes one token routing
// instance among the skeleton nodes, with the whole network serving as
// helpers (Theorem 2.2). The simulated algorithms declare oblivious
// communication schedules (package clique), which is how receivers know the
// token labels they must expect — the all-to-all trick of Corollary 4.1
// generalized to arbitrary data-independent patterns.
package cliquesim

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/ncc"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

// Factory builds the CLIQUE algorithm once the skeleton is public
// knowledge: q is the skeleton size and members the sorted skeleton node
// IDs (clique index i = members[i]). It must be deterministic in its
// arguments: every node calls it and must arrive at an identical algorithm
// (schedules are public knowledge).
type Factory func(q int, members []int) clique.Algorithm

// SharedFactory wraps a factory so that all nodes of one run share a single
// algorithm instance. Required for clique.Oracle (whose nodes pool their
// inputs) and a useful optimization for MM (the schedule is computed once).
func SharedFactory(f Factory) Factory {
	var once sync.Once
	var inst clique.Algorithm
	return func(q int, members []int) clique.Algorithm {
		once.Do(func() { inst = f(q, members) })
		return inst
	}
}

// Result is what one node knows after the simulation.
type Result struct {
	// Members lists the skeleton node IDs, sorted; clique index i is
	// Members[i]. Known by every node (public knowledge), and one copy
	// serves them all: read-only.
	Members []int
	// Index is this node's clique index, -1 if not a skeleton node.
	Index int
	// Node is this node's finished CLIQUE node state (nil unless a member).
	Node clique.Node
	// Alg is the algorithm instance (for reading Sources() etc.).
	Alg clique.Algorithm
}

// NewSimulateMachine runs the CLIQUE algorithm produced by factory on the
// skeleton members, collectively (Algorithm 8, see sim.StepProgram). skel is
// this node's skeleton view (from skeleton.ComputeMachine); sampleProb the
// sampling probability (it determines the helper parameter µ =
// min(sqrt(k), 1/p) of the routing session); rparams tunes the routing
// sessions (and carries the optional session cache). Its core is the
// RouteMachine-per-simulated-round driver: one SessionMachine computes the
// helper families once, then every CLIQUE round chains a fresh RouteMachine
// over the shared session. done receives the node's Result when the machine
// finishes.
func NewSimulateMachine(env *sim.Env, skel skeleton.Result, sampleProb float64, factory Factory, rparams routing.Params, done func(Result)) sim.StepProgram {
	var agg *ncc.AggregateMachine
	var diss *ncc.DisseminateMachine
	var sessM *routing.SessionMachine
	var res Result
	var alg clique.Algorithm
	var members []int
	q, index := 0, -1

	return sim.Sequence(
		// Establish the shared index space: exact count, then public
		// member list (Corollary 4.1's dissemination run).
		func(env *sim.Env) sim.StepProgram {
			inS := int64(0)
			if skel.InSkeleton {
				inS = 1
			}
			agg = ncc.NewAggregateMachine(env, inS, ncc.AggSum)
			return agg
		},
		func(env *sim.Env) sim.StepProgram {
			var mine []ncc.Token
			if skel.InSkeleton {
				mine = append(mine, ncc.Token{A: int64(env.ID())})
			}
			diss = ncc.NewDisseminateMachine(env, mine, int(agg.Out), 1, ncc.DisseminateParams{})
			return diss
		},
		// The routing session: senders = receivers = skeleton members; each
		// CLIQUE round moves at most q messages = 2q tokens per member in
		// each direction. (The factory runs first.)
		func(env *sim.Env) sim.StepProgram {
			members = ncc.Derived(env, membersKey{}, diss.Out, membersFromTokens)
			if i, ok := slices.BinarySearch(members, env.ID()); ok {
				index = i
			}
			q = len(members)
			res = Result{Members: members, Index: index}
			if q == 0 {
				return nil
			}
			alg = factory(q, members)
			res.Alg = alg
			sessM = routing.NewSessionMachine(env, skel.InSkeleton, skel.InSkeleton,
				2*q, 2*q, sampleProb, sampleProb, rparams)
			return sessM
		},
		// Algorithm 8: one RouteMachine per CLIQUE round over the session.
		func(env *sim.Env) sim.StepProgram {
			if q == 0 {
				return nil
			}
			// This member's CLIQUE input: its incident skeleton edges
			// translated to clique indices.
			if index >= 0 {
				res.Node = alg.NewNode(index, cliqueAdjacency(env.ID(), skel, members))
			}
			rounds := alg.Rounds()
			r := 0
			var routeM *routing.RouteMachine
			var selfIn []clique.Incoming
			return sim.Chain(func(env *sim.Env) sim.StepProgram {
				if routeM != nil && index >= 0 {
					res.Node.Recv(r-1, assemble(routeM.Out, members, selfIn))
				}
				if r >= rounds {
					return nil
				}
				var send []routing.Token
				var expect []routing.Label
				send, expect, selfIn = roundInstance(env.ID(), alg, res.Node, members, q, index, r)
				routeM = routing.NewRouteMachine(sessM.Out, send, expect)
				r++
				return routeM
			})
		},
		sim.Finish(func(env *sim.Env) { done(res) }),
	)
}

// membersKey is the sim.Agreed slot of the decoded member list.
type membersKey struct{}

// membersFromTokens decodes the disseminated member list into the sorted
// shared index space — the local tail of the dissemination run.
func membersFromTokens(memberTokens []ncc.Token) []int {
	members := make([]int, 0, len(memberTokens))
	for _, t := range memberTokens {
		members = append(members, int(t.A))
	}
	sort.Ints(members)
	return members
}

// cliqueAdjacency translates a member's incident skeleton edges into
// clique index space (its CLIQUE input): a merge of the sorted member list
// with the node's ID-sorted Near list.
func cliqueAdjacency(me int, skel skeleton.Result, members []int) []graph.Neighbor {
	adj := make([]graph.Neighbor, 0, len(skel.Near))
	near := skel.Near
	for i, id := range members {
		for len(near) > 0 && int(near[0].ID) < id {
			near = near[1:]
		}
		if len(near) == 0 {
			break
		}
		if int(near[0].ID) == id && id != me {
			adj = append(adj, graph.Neighbor{To: i, W: near[0].Dist})
		}
	}
	return adj
}

// roundInstance builds one node's routing instance for CLIQUE round r from
// the public schedule: the tokens to send (self-addressed ones filtered
// into selfIn, skipping the network), and the labels to expect. Pure;
// non-members send and expect nothing but still serve as helpers.
func roundInstance(me int, alg clique.Algorithm, node clique.Node, members []int, q, index, r int) (send []routing.Token, expect []routing.Label, selfIn []clique.Incoming) {
	if index >= 0 {
		slots := alg.Schedule(r, index)
		vals := node.Send(r)
		send = make([]routing.Token, 0, 2*len(slots))
		for si, s := range slots {
			dst := members[s.Dst]
			send = append(send,
				routing.Token{Label: routing.Label{S: me, R: dst, I: s.Tag * 2}, Value: vals[si].F0},
				routing.Token{Label: routing.Label{S: me, R: dst, I: s.Tag*2 + 1}, Value: vals[si].F1},
			)
		}
		// Receivers compute their expected labels from the public
		// schedule of every sender.
		for jp := 0; jp < q; jp++ {
			if jp == index {
				// Self-slots short-circuit below.
				continue
			}
			for _, s := range alg.Schedule(r, jp) {
				if s.Dst != index {
					continue
				}
				src := members[jp]
				expect = append(expect,
					routing.Label{S: src, R: me, I: s.Tag * 2},
					routing.Label{S: src, R: me, I: s.Tag*2 + 1},
				)
			}
		}
	}
	// Self-addressed messages skip the network.
	filtered := send[:0]
	for _, t := range send {
		if t.R == me {
			if t.I%2 == 0 {
				selfIn = append(selfIn, clique.Incoming{Src: index, Tag: t.I / 2, Val: clique.Value{F0: t.Value}})
			} else if len(selfIn) > 0 {
				selfIn[len(selfIn)-1].Val.F1 = t.Value
			}
			continue
		}
		filtered = append(filtered, t)
	}
	return filtered, expect, selfIn
}

// assemble pairs the two word-tokens of each message back into
// clique.Incoming values, sorted by (Src, Tag). A sender's clique index is its
// position in the sorted member list.
func assemble(got []routing.Token, members []int, selfIn []clique.Incoming) []clique.Incoming {
	type key struct {
		src int
		tag int64
	}
	vals := map[key]*clique.Value{}
	for _, t := range got {
		src, ok := slices.BinarySearch(members, t.S)
		if !ok {
			continue
		}
		k := key{src: src, tag: t.I / 2}
		v := vals[k]
		if v == nil {
			v = &clique.Value{}
			vals[k] = v
		}
		if t.I%2 == 0 {
			v.F0 = t.Value
		} else {
			v.F1 = t.Value
		}
	}
	in := make([]clique.Incoming, 0, len(vals)+len(selfIn))
	for k, v := range vals {
		in = append(in, clique.Incoming{Src: k.src, Tag: k.tag, Val: *v})
	}
	in = append(in, selfIn...)
	slices.SortFunc(in, func(a, b clique.Incoming) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Tag, b.Tag)
	})
	return in
}
