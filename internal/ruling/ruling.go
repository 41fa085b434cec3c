// Package ruling implements the deterministic distributed ruling-set
// algorithm the paper invokes as Lemma 2.1 (due to Awerbuch et al. [4] and
// Kuhn, Maus & Weidner [22]): a (2µ+1, 2µ⌈log n⌉)-ruling set of the local
// graph computed in O(µ log n) rounds using only local communication.
//
// Definition 2.3: R ⊆ V is an (α, β)-ruling set iff every node is within β
// hops of some ruler and any two distinct rulers are at least α hops apart.
//
// The algorithm is the classic bitwise-ID elimination: starting from
// R = V, process the ⌈log n⌉ ID bits one at a time; at bit i, candidates
// whose bit is 1 drop out if a candidate with bit 0 lies within 2µ hops
// (detected by a 2µ-round local wave). Each stage preserves domination up to
// +2µ hops and the survivors of all stages are pairwise > 2µ apart.
package ruling

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// waveMsg is the local-mode payload of the elimination wave: a zero-bit
// candidate announces itself with a time-to-live.
type waveMsg struct {
	TTL int
}

// PayloadWords implements sim.WordSized: a wave message is one word.
func (waveMsg) PayloadWords() int64 { return 1 }

// Machine is the collective ruling-set protocol (see sim.StepProgram). After
// it finishes, InSet reports whether this node ended up in the ruling set,
// which is a (2µ+1, 2µ⌈log n⌉)-ruling set of G (Lemma 2.1).
type Machine struct {
	// InSet reports ruling-set membership; valid once Step returned true.
	InSet bool

	loop      sim.Loop
	alpha     int
	candidate bool
	heard     bool
	seen      bool
}

// NewMachine builds the collective ruling-set machine; all nodes must start
// it in the same round with the same µ. It takes exactly Rounds(n, mu)
// rounds.
func NewMachine(env *sim.Env, mu int) *Machine {
	if mu < 1 {
		mu = 1
	}
	m := &Machine{alpha: 2 * mu, candidate: true}
	m.loop = sim.Loop{
		Rounds: sim.Log2Ceil(env.N()) * m.alpha,
		Send:   m.send,
		Recv:   m.recv,
		// Between messages a node acts only at bit-stage boundaries: the
		// stage's first Send, preceded by the previous stage's verdict in
		// Recv (which runs on an empty inbox too).
		NextSend: func(i int) int { return (i + m.alpha - 1) / m.alpha * m.alpha },
	}
	return m
}

// Step implements sim.StepProgram.
func (m *Machine) Step(env *sim.Env) bool {
	if m.loop.Step(env) {
		m.InSet = m.candidate
		return true
	}
	return false
}

// send starts a bit-stage's elimination wave: at the first round of bit b,
// zero-bit candidates announce themselves with TTL alpha-1; one-bit
// candidates that hear it drop out. Every node forwards the wave (whether
// candidate or not) so distances are true hop distances.
func (m *Machine) send(env *sim.Env, i int) {
	bit, step := i/m.alpha, i%m.alpha
	if step == 0 && m.candidate && (env.ID()>>bit)&1 == 0 {
		env.BroadcastLocal(waveMsg{TTL: m.alpha - 1})
		m.seen = true
	}
}

// recv forwards the wave once, with the largest remaining TTL
// (re-forwarding can only shrink TTL, so once suffices), and, at a bit-stage
// boundary, drops one-bit candidates that heard it.
func (m *Machine) recv(env *sim.Env, in sim.Inbox, i int) {
	best := -1
	for _, lm := range in.Local {
		if w, ok := lm.Payload.(waveMsg); ok {
			m.heard = true
			if w.TTL > best {
				best = w.TTL
			}
		}
	}
	if best > 0 && !m.seen {
		env.BroadcastLocal(waveMsg{TTL: best - 1})
		m.seen = true
	}
	if i%m.alpha == m.alpha-1 {
		bit := i / m.alpha
		if m.candidate && (env.ID()>>bit)&1 == 1 && m.heard {
			m.candidate = false
		}
		m.heard, m.seen = false, false
	}
}

// Check verifies the (alpha, beta)-ruling set properties of rulers on g
// sequentially. It returns nil iff rulers is a valid (alpha, beta)-ruling
// set. Used by tests and by the experiment harness as ground truth.
func Check(g *graph.Graph, rulers []bool, alpha, beta int) error {
	n := g.N()
	if len(rulers) != n {
		return fmt.Errorf("ruling: got %d flags for %d nodes", len(rulers), n)
	}
	any := false
	for v := 0; v < n; v++ {
		if rulers[v] {
			any = true
			break
		}
	}
	if !any && n > 0 {
		return fmt.Errorf("ruling: empty ruling set")
	}
	// Multi-source BFS from all rulers gives each node's distance to the
	// nearest ruler (domination) and, from each ruler, a solo BFS bounds
	// pairwise separation.
	distToRuler := make([]int, n)
	for i := range distToRuler {
		distToRuler[i] = -1
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if rulers[v] {
			distToRuler[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(u) {
			if distToRuler[nb.To] == -1 {
				distToRuler[nb.To] = distToRuler[u] + 1
				queue = append(queue, nb.To)
			}
		}
	}
	for v := 0; v < n; v++ {
		if distToRuler[v] == -1 || distToRuler[v] > beta {
			return fmt.Errorf("ruling: node %d is %d hops from nearest ruler, beta = %d", v, distToRuler[v], beta)
		}
	}
	// Separation: BFS limited to depth alpha-1 from each ruler must not
	// reach another ruler.
	for r := 0; r < n; r++ {
		if !rulers[r] {
			continue
		}
		d := graph.BFS(g, r)
		for v := 0; v < n; v++ {
			if v != r && rulers[v] && d[v] < int64(alpha) {
				return fmt.Errorf("ruling: rulers %d and %d are %d hops apart, alpha = %d", r, v, d[v], alpha)
			}
		}
	}
	return nil
}

// Rounds returns the exact number of rounds Machine takes for the given n
// and mu, so callers composing phases can pre-compute schedules.
func Rounds(n, mu int) int {
	if mu < 1 {
		mu = 1
	}
	return sim.Log2Ceil(n) * 2 * mu
}
