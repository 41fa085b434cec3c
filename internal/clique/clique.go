// Package clique implements the Congested Clique (CLIQUE) model and the
// shortest-path algorithms the paper simulates on skeleton graphs (§4, §5).
//
// Model (paper §4, footnote 4 and 9): q nodes with unique IDs 0..q-1 and
// unlimited local computation exchange O(log n)-bit messages in synchronous
// rounds. Following the paper's footnote 9, we adopt the Lenzen-routing
// convention [24]: per round, every node may send up to q messages to
// arbitrary targets and receives at most q messages. This is exactly the
// accounting Corollary 4.1 uses for the HYBRID simulation (each skeleton
// node sends/receives at most |S| messages per simulated round).
//
// Oblivious schedules. Every algorithm declares its full communication
// pattern as a function of (round, node) only — independent of the input
// data. This is required by the HYBRID simulation: the token routing
// protocol of §2 assumes receivers know the labels of the tokens they must
// receive, which Corollary 4.1 obtains by making the traffic pattern public
// knowledge. All our algorithms (Bellman-Ford iterations, block matrix
// multiplication, max-broadcast) are naturally oblivious.
package clique

import (
	"fmt"

	"repro/internal/graph"
)

// Value is one message payload: two O(log n)-bit words.
type Value struct {
	F0, F1 int64
}

// Slot is one outgoing message slot in the oblivious schedule: the
// destination node and a tag distinguishing concurrent messages between the
// same pair. Tags must be unique per (src, dst, round) and stay below 2^29:
// they become token-label indices I = 2·tag+1 in the HYBRID simulation,
// which requires I < 2^30 (routing.Label.pack enforces this at runtime;
// clique_test.go's TestMMTagsFitRoutingLabels checks the MM schedules).
type Slot struct {
	Dst int
	Tag int64
}

// Incoming is a delivered message.
type Incoming struct {
	Src int
	Tag int64
	Val Value
}

// Node is the per-node state of a running CLIQUE algorithm. Send must
// return exactly one Value per slot of Algorithm.Schedule(r, self), in
// order. Recv delivers the round's messages (sorted by (Src, Tag)).
type Node interface {
	Send(r int) []Value
	Recv(r int, in []Incoming)
}

// Algorithm describes a CLIQUE algorithm: its size, its fixed round count,
// its oblivious schedule, and a node factory. adj is the node's local input
// (incident weighted edges in the graph the algorithm runs on, indexed
// 0..q-1).
type Algorithm interface {
	// Q returns the number of nodes.
	Q() int
	// Rounds returns the total number of rounds (input-independent).
	Rounds() int
	// Schedule returns the slots node p sends in round r. The total per
	// node per round must be at most q, and the induced receive load at
	// most q (the Lenzen bound); Run enforces both.
	Schedule(r, p int) []Slot
	// NewNode creates node p's state from its local input.
	NewNode(p int, adj []graph.Neighbor) Node
}

// DistanceAlgorithm is implemented by algorithms whose nodes output
// distances to a fixed global source list.
type DistanceAlgorithm interface {
	Algorithm
	// Sources returns the global source list outputs are aligned to.
	Sources() []int
}

// DistanceNode is implemented by nodes of DistanceAlgorithms.
type DistanceNode interface {
	Node
	// Distances returns this node's distance estimates, aligned with the
	// algorithm's Sources().
	Distances() []int64
}

// DiameterNode is implemented by nodes that also learn the (estimated)
// weighted diameter of the input graph.
type DiameterNode interface {
	Node
	Diameter() int64
}

// Run executes alg standalone on the given adjacency lists (inputs[p] is
// node p's incident edges) and returns the final node states. It enforces
// the model: schedule alignment, per-round send and receive loads at most
// q. Standalone execution is the unit-test harness for CLIQUE algorithms;
// the HYBRID simulation in package cliquesim re-uses the same Algorithm.
func Run(alg Algorithm, inputs [][]graph.Neighbor) ([]Node, error) {
	q := alg.Q()
	if len(inputs) != q {
		return nil, fmt.Errorf("clique: %d inputs for %d nodes", len(inputs), q)
	}
	nodes := make([]Node, q)
	for p := 0; p < q; p++ {
		nodes[p] = alg.NewNode(p, inputs[p])
	}
	rounds := alg.Rounds()
	inboxes := make([][]Incoming, q)
	for r := 0; r < rounds; r++ {
		recvCount := make([]int, q)
		for p := 0; p < q; p++ {
			slots := alg.Schedule(r, p)
			if len(slots) > q {
				return nil, fmt.Errorf("clique: node %d sends %d > q = %d messages in round %d", p, len(slots), q, r)
			}
			vals := nodes[p].Send(r)
			if len(vals) != len(slots) {
				return nil, fmt.Errorf("clique: node %d produced %d values for %d slots in round %d", p, len(vals), len(slots), r)
			}
			for i, s := range slots {
				if s.Dst < 0 || s.Dst >= q {
					return nil, fmt.Errorf("clique: node %d slot to invalid node %d", p, s.Dst)
				}
				recvCount[s.Dst]++
				inboxes[s.Dst] = append(inboxes[s.Dst], Incoming{Src: p, Tag: s.Tag, Val: vals[i]})
			}
		}
		for p := 0; p < q; p++ {
			if recvCount[p] > q {
				return nil, fmt.Errorf("clique: node %d receives %d > q = %d messages in round %d", p, recvCount[p], q, r)
			}
		}
		for p := 0; p < q; p++ {
			if len(inboxes[p]) > 0 {
				sortIncoming(inboxes[p])
				nodes[p].Recv(r, inboxes[p])
				inboxes[p] = nil
			} else {
				nodes[p].Recv(r, nil)
			}
		}
	}
	return nodes, nil
}

// sortIncoming orders messages by (Src, Tag) for determinism.
func sortIncoming(in []Incoming) {
	// Insertion sort: inboxes are built in src order already, tags nearly
	// sorted; this is O(n) in practice.
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && less(in[j], in[j-1]); j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
}

func less(a, b Incoming) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Tag < b.Tag
}

// AdjacencyInputs builds the per-node inputs of a CLIQUE run from a graph.
func AdjacencyInputs(g *graph.Graph) [][]graph.Neighbor {
	out := make([][]graph.Neighbor, g.N())
	for p := 0; p < g.N(); p++ {
		out[p] = g.Neighbors(p)
	}
	return out
}
