package clique

import (
	"sort"

	"repro/internal/graph"
)

// MM is the semiring (min, +) matrix-multiplication APSP algorithm for the
// CLIQUE model (Censor-Hillel et al. [8], semiring variant): the distance
// matrix is squared ceil(log2(q-1)) times; each distance product is
// computed by the 3D block decomposition in O(q^(1/3)) rounds of
// Lenzen-routed traffic. This is the δ = 1/3 concrete algorithm our
// framework experiments run with real messages; the ring-based
// fast-matrix-multiplication variant (δ = ρ < 0.1572) only changes the
// exponent, which the declared-cost Oracle covers.
//
// Block decomposition: with b = ceil(q^(1/3)) and row groups of size
// g = ceil(q/b), the b^3 triples (a, β, c) are assigned round-robin to
// nodes (triple τ lives at node τ mod q, at most ceil(b³/q) ≤ 2 per node).
// Per product:
//
//	phase 1: node i ships X[i][group c] to every triple (a, β, c) with
//	         i ∈ group a, and Y[i][group β] to every triple (a, β, c)
//	         with i ∈ group c  (≈ 2q^(4/3) words in and out per node);
//	phase 2: local block products (free in the model);
//	phase 3: partials P_c[i][j] return to the row owner i, which combines
//	         by min over c.
//
// All flows are input-independent; they are packed into rounds of at most
// q sends and q receives per node by a deterministic greedy first-fit
// (two-coloring argument: first-fit needs at most twice the optimal number
// of rounds, preserving the O(q^(1/3)) bound).
type MM struct {
	q, b, g      int
	products     int
	withDiameter bool

	p1Rounds int
	p3Rounds int
	// pre-computed slot lists: phase -> node -> localRound -> slots
	p1Slots [][][]Slot
	p3Slots [][][]Slot
	// triples owned per node
	triples [][]triple
}

type triple struct{ a, beta, c int }

// flow is one scheduled message of a product phase.
type flow struct {
	src, dst int
	tag      int64
}

// Tag kinds: X entry, Y entry, partial (with c block).
func (a *MM) tagX(i, j int) int64    { return int64(0*a.q*a.q + i*a.q + j) }
func (a *MM) tagY(i, j int) int64    { return int64(1)*int64(a.q)*int64(a.q) + int64(i*a.q+j) }
func (a *MM) tagP(c, i, j int) int64 { return int64(2+c)*int64(a.q)*int64(a.q) + int64(i*a.q+j) }
func (a *MM) splitTag(t int64) (kind int, i, j int) {
	qq := int64(a.q) * int64(a.q)
	kind = int(t / qq)
	rest := int(t % qq)
	return kind, rest / a.q, rest % a.q
}

// NewMM constructs the algorithm for q nodes. withDiameter appends one
// max-broadcast round after the last product so every node also learns the
// exact weighted diameter (used by the Theorem 5.1 experiments).
func NewMM(q int, withDiameter bool) *MM {
	b := 1
	for b*b*b < q {
		b++
	}
	g := (q + b - 1) / b
	products := 1
	for (1 << products) < q-1 {
		products++
	}
	if q <= 2 {
		products = 1
	}
	a := &MM{q: q, b: b, g: g, products: products, withDiameter: withDiameter}
	a.triples = make([][]triple, q)
	for t := 0; t < b*b*b; t++ {
		p := t % q
		a.triples[p] = append(a.triples[p], triple{a: t / (b * b), beta: (t / b) % b, c: t % b})
	}
	a.buildSchedules()
	return a
}

// group returns the members of row group gi, respecting the truncation at q.
func (a *MM) group(gi int) (lo, hi int) {
	lo = gi * a.g
	hi = lo + a.g
	if hi > a.q {
		hi = a.q
	}
	if lo > a.q {
		lo = a.q
	}
	return lo, hi
}

// buildSchedules enumerates the oblivious flows of one product and packs
// them into rounds.
func (a *MM) buildSchedules() {
	var p1, p3 []flow
	seen := map[flow]bool{}
	for p := 0; p < a.q; p++ {
		for _, tr := range a.triples[p] {
			alo, ahi := a.group(tr.a)
			blo, bhi := a.group(tr.beta)
			clo, chi := a.group(tr.c)
			// X block: rows group a, cols group c, owned row-wise.
			for i := alo; i < ahi; i++ {
				if i == p {
					continue // own row read locally
				}
				for j := clo; j < chi; j++ {
					f := flow{src: i, dst: p, tag: a.tagX(i, j)}
					if !seen[f] {
						seen[f] = true
						p1 = append(p1, f)
					}
				}
			}
			// Y block: rows group c, cols group beta.
			for k := clo; k < chi; k++ {
				if k == p {
					continue
				}
				for j := blo; j < bhi; j++ {
					f := flow{src: k, dst: p, tag: a.tagY(k, j)}
					if !seen[f] {
						seen[f] = true
						p1 = append(p1, f)
					}
				}
			}
			// Partials: back to the row owners.
			for i := alo; i < ahi; i++ {
				if i == p {
					continue // combined locally
				}
				for j := blo; j < bhi; j++ {
					p3 = append(p3, flow{src: p, dst: i, tag: a.tagP(tr.c, i, j)})
				}
			}
		}
	}
	a.p1Rounds, a.p1Slots = a.pack(p1)
	a.p3Rounds, a.p3Slots = a.pack(p3)
}

// pack assigns flows to rounds with at most q sends and q receives per node
// per round (greedy first-fit over canonically sorted flows). It returns
// the round count (at least 1, so every product has a compute trigger) and
// slots[node][round].
func (a *MM) pack(flows []flow) (int, [][][]Slot) {
	sort.Slice(flows, func(x, y int) bool {
		if flows[x].src != flows[y].src {
			return flows[x].src < flows[y].src
		}
		if flows[x].dst != flows[y].dst {
			return flows[x].dst < flows[y].dst
		}
		return flows[x].tag < flows[y].tag
	})
	var sendLoad, recvLoad [][]int // [round][node]
	rounds := 0
	grow := func() {
		sendLoad = append(sendLoad, make([]int, a.q))
		recvLoad = append(recvLoad, make([]int, a.q))
		rounds++
	}
	grow()
	assign := make([]int, len(flows))
	for fi, f := range flows {
		placed := false
		for r := 0; r < rounds; r++ {
			if sendLoad[r][f.src] < a.q && recvLoad[r][f.dst] < a.q {
				sendLoad[r][f.src]++
				recvLoad[r][f.dst]++
				assign[fi] = r
				placed = true
				break
			}
		}
		if !placed {
			grow()
			r := rounds - 1
			sendLoad[r][f.src]++
			recvLoad[r][f.dst]++
			assign[fi] = r
		}
	}
	slots := make([][][]Slot, a.q)
	for p := range slots {
		slots[p] = make([][]Slot, rounds)
	}
	for fi, f := range flows {
		r := assign[fi]
		slots[f.src][r] = append(slots[f.src][r], Slot{Dst: f.dst, Tag: f.tag})
	}
	return rounds, slots
}

// Q returns the node count.
func (a *MM) Q() int { return a.q }

// Rounds returns products*(p1+p3) plus the optional diameter round.
func (a *MM) Rounds() int {
	r := a.products * (a.p1Rounds + a.p3Rounds)
	if a.withDiameter {
		r++
	}
	return r
}

// Sources returns 0..q-1: MM solves full APSP.
func (a *MM) Sources() []int {
	s := make([]int, a.q)
	for i := range s {
		s[i] = i
	}
	return s
}

// phaseOf decomposes a global round index.
func (a *MM) phaseOf(r int) (product int, phase int, local int) {
	per := a.p1Rounds + a.p3Rounds
	if r >= a.products*per {
		return -1, 2, 0 // diameter round
	}
	product = r / per
	rr := r % per
	if rr < a.p1Rounds {
		return product, 0, rr
	}
	return product, 1, rr - a.p1Rounds
}

// Schedule returns node p's slots for round r.
func (a *MM) Schedule(r, p int) []Slot {
	_, phase, local := a.phaseOf(r)
	switch phase {
	case 0:
		return a.p1Slots[p][local]
	case 1:
		return a.p3Slots[p][local]
	default: // diameter max-broadcast
		slots := make([]Slot, 0, a.q-1)
		for d := 0; d < a.q; d++ {
			if d != p {
				slots = append(slots, Slot{Dst: d, Tag: 0})
			}
		}
		return slots
	}
}

// NewNode creates node p's state.
func (a *MM) NewNode(p int, adj []graph.Neighbor) Node {
	n := &mmNode{alg: a, self: p, row: make([]int64, a.q)}
	for j := range n.row {
		n.row[j] = graph.Inf
	}
	n.row[p] = 0
	for _, nb := range adj {
		if nb.W < n.row[nb.To] {
			n.row[nb.To] = nb.W
		}
	}
	n.reset()
	return n
}

type mmNode struct {
	alg  *MM
	self int
	row  []int64

	xEnt map[int]int64 // key i*q+j
	yEnt map[int]int64
	next []int64
	diam int64
}

func (n *mmNode) reset() {
	n.xEnt = map[int]int64{}
	n.yEnt = map[int]int64{}
	n.next = make([]int64, n.alg.q)
	for j := range n.next {
		n.next[j] = graph.Inf
	}
}

// getEntry reads a matrix entry received in phase 1, falling back to the
// own row (rows owned locally are never shipped to self).
func (n *mmNode) getEntry(m map[int]int64, i, j int) int64 {
	if i == n.self {
		return n.row[j]
	}
	if v, ok := m[i*n.alg.q+j]; ok {
		return v
	}
	return graph.Inf
}

func (n *mmNode) Send(r int) []Value {
	_, phase, local := n.alg.phaseOf(r)
	switch phase {
	case 0:
		slots := n.alg.p1Slots[n.self][local]
		vals := make([]Value, len(slots))
		for si, s := range slots {
			_, _, j := n.alg.splitTag(s.Tag)
			vals[si] = Value{F0: n.row[j]}
		}
		return vals
	case 1:
		slots := n.alg.p3Slots[n.self][local]
		vals := make([]Value, len(slots))
		for si, s := range slots {
			kind, i, j := n.alg.splitTag(s.Tag)
			c := kind - 2
			vals[si] = Value{F0: n.partial(c, i, j)}
		}
		return vals
	default:
		ecc := int64(0)
		for _, d := range n.row {
			if d < graph.Inf && d > ecc {
				ecc = d
			}
		}
		vals := make([]Value, n.alg.q-1)
		for i := range vals {
			vals[i] = Value{F0: ecc}
		}
		if ecc > n.diam {
			n.diam = ecc
		}
		return vals
	}
}

// partial computes P_c[i][j] = min_{k in group c} X[i][k] + Y[k][j].
func (n *mmNode) partial(c, i, j int) int64 {
	lo, hi := n.alg.group(c)
	best := graph.Inf
	for k := lo; k < hi; k++ {
		if v := graph.SatAdd(n.getEntry(n.xEnt, i, k), n.getEntry(n.yEnt, k, j)); v < best {
			best = v
		}
	}
	return best
}

func (n *mmNode) Recv(r int, in []Incoming) {
	_, phase, local := n.alg.phaseOf(r)
	switch phase {
	case 0:
		for _, m := range in {
			kind, i, j := n.alg.splitTag(m.Tag)
			if kind == 0 {
				n.xEnt[i*n.alg.q+j] = m.Val.F0
			} else {
				n.yEnt[i*n.alg.q+j] = m.Val.F0
			}
		}
	case 1:
		for _, m := range in {
			kind, i, j := n.alg.splitTag(m.Tag)
			if kind >= 2 && i == n.self {
				if m.Val.F0 < n.next[j] {
					n.next[j] = m.Val.F0
				}
			}
		}
		if local == n.alg.p3Rounds-1 {
			// Product complete: fold in the locally-owned triples' partials
			// for my own row, then install.
			for _, tr := range n.alg.triples[n.self] {
				alo, ahi := n.alg.group(tr.a)
				if n.self < alo || n.self >= ahi {
					continue
				}
				blo, bhi := n.alg.group(tr.beta)
				for j := blo; j < bhi; j++ {
					if v := n.partial(tr.c, n.self, j); v < n.next[j] {
						n.next[j] = v
					}
				}
			}
			n.row = n.next
			n.reset()
		}
	default:
		for _, m := range in {
			if m.Val.F0 > n.diam {
				n.diam = m.Val.F0
			}
		}
	}
}

// Distances returns the node's full distance row (sources = all nodes).
func (n *mmNode) Distances() []int64 { return n.row }

// Diameter returns the weighted diameter learned in the final broadcast
// round (only meaningful when the algorithm was built withDiameter).
func (n *mmNode) Diameter() int64 { return n.diam }

var (
	_ DistanceAlgorithm = (*MM)(nil)
	_ DistanceNode      = (*mmNode)(nil)
	_ DiameterNode      = (*mmNode)(nil)
)
