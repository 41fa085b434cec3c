package ruling

import "repro/internal/sim"

// Machine is the step-machine form of Compute (see sim.StepProgram): the
// same bitwise-ID elimination, advanced one round segment per Step call so
// the goroutine-free engine can run it. After the machine finishes, InSet
// reports membership in the ruling set. The port is line-for-line faithful
// — identical messages, randomness, and round count — so either form may
// run under any engine and produce byte-identical results.
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
// rounds, like Compute.
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
// zero-bit candidates announce themselves with TTL alpha-1.
func (m *Machine) send(env *sim.Env, i int) {
	bit, step := i/m.alpha, i%m.alpha
	if step == 0 && m.candidate && (env.ID()>>bit)&1 == 0 {
		env.BroadcastLocal(waveMsg{TTL: m.alpha - 1})
		m.seen = true
	}
}

// recv forwards the wave (once, with the largest remaining TTL) and, at a
// bit-stage boundary, drops one-bit candidates that heard it.
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

// PayloadWords implements sim.WordSized: a wave message is one word.
func (waveMsg) PayloadWords() int64 { return 1 }
