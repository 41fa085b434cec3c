package ncc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// The primitives as sim.Pipelines yielding their result field.

func aggregate(value func(id int) int64, op AggOp) sim.Pipeline[int64] {
	return func(env *sim.Env, done func(int64)) sim.StepProgram {
		m := NewAggregateMachine(env, value(env.ID()), op)
		return sim.Then(m, func(*sim.Env) { done(m.Out) })
	}
}

func broadcastWords(source int, words []int64, maxWords int) sim.Pipeline[[]int64] {
	return func(env *sim.Env, done func([]int64)) sim.StepProgram {
		var w []int64
		if env.ID() == source {
			w = words
		}
		m := NewBroadcastWordsMachine(env, source, w, maxWords)
		return sim.Then(m, func(*sim.Env) { done(m.Out) })
	}
}

func disseminate(mine func(id int) []Token, k, ell int) sim.Pipeline[[]Token] {
	return func(env *sim.Env, done func([]Token)) sim.StepProgram {
		m := NewDisseminateMachine(env, mine(env.ID()), k, ell, DisseminateParams{})
		return sim.Then(m, func(*sim.Env) { done(m.Out) })
	}
}

func pipelinedBroadcast(mine func(id int) []Token, ell int) sim.Pipeline[[]Token] {
	return func(env *sim.Env, done func([]Token)) sim.StepProgram {
		m := NewPipelinedBroadcastMachine(env, mine(env.ID()), ell)
		return sim.Then(m, func(*sim.Env) { done(m.Out) })
	}
}

func TestAggregateOps(t *testing.T) {
	tests := []struct {
		name string
		n    int
		op   AggOp
		val  func(id int) int64
		want int64
	}{
		{"max", 17, AggMax, func(id int) int64 { return int64(id * 3) }, 48},
		{"min", 17, AggMin, func(id int) int64 { return int64(100 - id) }, 84},
		{"sum", 10, AggSum, func(id int) int64 { return int64(id) }, 45},
		{"max single", 1, AggMax, func(id int) int64 { return 7 }, 7},
		{"sum power of two", 16, AggSum, func(id int) int64 { return 1 }, 16},
		{"max negative", 9, AggMax, func(id int) int64 { return int64(-id - 1) }, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := graph.Path(tt.n)
			got, _, err := sim.RunPipeline(g, sim.Config{Seed: 1}, aggregate(tt.val, tt.op))
			if err != nil {
				t.Fatal(err)
			}
			for id, v := range got {
				if v != tt.want {
					t.Fatalf("node %d got %d, want %d", id, v, tt.want)
				}
			}
		})
	}
}

func TestAggregateRoundsLogarithmic(t *testing.T) {
	g := graph.Path(100)
	_, m, err := sim.RunPipeline(g, sim.Config{Seed: 1}, aggregate(func(id int) int64 { return int64(id) }, AggMax))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * sim.Log2Ceil(100)
	if m.Rounds != want {
		t.Fatalf("Rounds = %d, want %d (2 ceil(log2 n))", m.Rounds, want)
	}
}

func TestAggregateUsesOnlyGlobalMode(t *testing.T) {
	g := graph.Path(32)
	_, m, err := sim.RunPipeline(g, sim.Config{Seed: 1}, aggregate(func(int) int64 { return 1 }, AggSum))
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalMsgs != 0 {
		t.Fatalf("aggregation used %d local messages; Lemma B.2 is NCC-only", m.LocalMsgs)
	}
}

func TestBroadcastWords(t *testing.T) {
	tests := []struct {
		name     string
		n        int
		source   int
		words    []int64
		maxWords int
	}{
		{"single word", 13, 0, []int64{42}, 1},
		{"seed sized", 20, 7, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 12},
		{"padded", 8, 3, []int64{9, 9}, 5},
		{"two nodes", 2, 1, []int64{-5, 7, 11}, 3},
		{"large vector", 33, 32, seq(40), 40},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := graph.Path(tt.n)
			got, _, err := sim.RunPipeline(g, sim.Config{Seed: 2}, broadcastWords(tt.source, tt.words, tt.maxWords))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, tt.maxWords)
			copy(want, tt.words)
			for id, w := range got {
				if len(w) != tt.maxWords {
					t.Fatalf("node %d got %d words, want %d", id, len(w), tt.maxWords)
				}
				for i := range w {
					if w[i] != want[i] {
						t.Fatalf("node %d word %d = %d, want %d", id, i, w[i], want[i])
					}
				}
			}
		})
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i * i)
	}
	return out
}

func TestBroadcastWordsSeedCost(t *testing.T) {
	// An O(log^2 n)-bit seed (logN words) must broadcast in O(log n) rounds.
	const n = 256
	g := graph.Path(n)
	logN := sim.Log2Ceil(n)
	_, m, err := sim.RunPipeline(g, sim.Config{Seed: 3}, broadcastWords(0, seq(logN), logN))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds > 2*logN {
		t.Fatalf("seed broadcast took %d rounds, want <= %d", m.Rounds, 2*logN)
	}
}

func disseminateOnce(t *testing.T, g *graph.Graph, tokensPerNode func(id int) []Token, k, ell int, seed int64) ([][]Token, sim.Metrics) {
	t.Helper()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, disseminate(tokensPerNode, k, ell))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

func TestDisseminateAllLearnAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(60)},
		{"grid", graph.Grid(8, 8)},
		{"sparse", graph.SparseConnected(80, 1, rng)},
		{"barbell", graph.Barbell(20, 10)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tt.g.N()
			// Tokens concentrated at 5 source nodes, 8 tokens each.
			const perSource, nSources = 8, 5
			k := perSource * nSources
			mk := func(id int) []Token {
				if id >= nSources {
					return nil
				}
				out := make([]Token, perSource)
				for i := range out {
					out[i] = Token{A: int64(id), B: int64(i), C: int64(id*1000 + i)}
				}
				return out
			}
			got, _ := disseminateOnce(t, tt.g, mk, k, perSource, 7)
			for id := 0; id < n; id++ {
				if len(got[id]) != k {
					t.Fatalf("node %d knows %d tokens, want %d", id, len(got[id]), k)
				}
			}
			// Spot-check content at an arbitrary node.
			want := map[Token]bool{}
			for s := 0; s < nSources; s++ {
				for _, tok := range mk(s) {
					want[tok] = true
				}
			}
			for _, tok := range got[n-1] {
				if !want[tok] {
					t.Fatalf("node %d learned unexpected token %+v", n-1, tok)
				}
			}
		})
	}
}

func TestDisseminateZeroTokens(t *testing.T) {
	g := graph.Path(10)
	got, m := disseminateOnce(t, g, func(int) []Token { return nil }, 0, 0, 9)
	for id := range got {
		if len(got[id]) != 0 {
			t.Fatalf("node %d has %d tokens, want 0", id, len(got[id]))
		}
	}
	if m.Rounds != 0 {
		t.Fatalf("zero-token dissemination took %d rounds", m.Rounds)
	}
}

func TestDisseminateSingleToken(t *testing.T) {
	g := graph.Grid(6, 6)
	got, _ := disseminateOnce(t, g, func(id int) []Token {
		if id == 17 {
			return []Token{{A: 5, B: 6, C: 7}}
		}
		return nil
	}, 1, 1, 10)
	for id := range got {
		if len(got[id]) != 1 || got[id][0] != (Token{5, 6, 7}) {
			t.Fatalf("node %d = %v, want the single token", id, got[id])
		}
	}
}

func TestDisseminateScalingSqrtK(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short mode")
	}
	// Rounds should grow like sqrt(k) once k dominates the log terms:
	// quadrupling k should roughly double rounds, and must not quadruple.
	g := graph.Grid(16, 16)
	n := g.N()
	rounds := map[int]int{}
	for _, k := range []int{64, 256, 1024} {
		per := (k + n - 1) / n
		mk := func(id int) []Token {
			out := []Token{}
			for i := 0; i < per; i++ {
				t := id*per + i
				if t < k {
					out = append(out, Token{A: int64(t), B: 0, C: 0})
				}
			}
			return out
		}
		got, m := disseminateOnce(t, g, mk, k, per, 11)
		for id := range got {
			if len(got[id]) != k {
				t.Fatalf("k=%d node %d learned %d", k, id, len(got[id]))
			}
		}
		rounds[k] = m.Rounds
	}
	r64, r1024 := float64(rounds[64]), float64(rounds[1024])
	// sqrt scaling predicts x4; allow up to x8 for log factors, and require
	// clearly sub-linear growth (< x16).
	if r1024/r64 > 8 {
		t.Fatalf("rounds grew from %v to %v for 16x tokens; want ~4x (sqrt scaling)", r64, r1024)
	}
}

func TestDisseminateRecvLoadLogarithmic(t *testing.T) {
	// Lemma-D.2-style check: random targets keep the max receive load near
	// the cap.
	g := graph.Grid(10, 10)
	n := g.N()
	k := 400
	per := k / n
	mk := func(id int) []Token {
		out := make([]Token, per)
		for i := range out {
			out[i] = Token{A: int64(id*per + i)}
		}
		return out
	}
	_, m := disseminateOnce(t, g, mk, k, per, 13)
	logN := sim.Log2Ceil(n)
	if m.MaxGlobalRecv > 6*logN {
		t.Fatalf("max receive load %d exceeds 6 log n = %d", m.MaxGlobalRecv, 6*logN)
	}
}

// Property: aggregation result equals the sequential fold for random values.
func TestQuickAggregateMatchesSequential(t *testing.T) {
	f := func(seed int64, nRaw uint8, opRaw uint8) bool {
		n := 2 + int(nRaw%30)
		op := AggOp(1 + opRaw%3)
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(2001) - 1000)
		}
		want := vals[0]
		for _, v := range vals[1:] {
			want = op.combine(want, v)
		}
		g := graph.Path(n)
		got, _, err := sim.RunPipeline(g, sim.Config{Seed: seed}, aggregate(func(id int) int64 { return vals[id] }, op))
		if err != nil {
			return false
		}
		for _, v := range got {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIsqrt(t *testing.T) {
	for x := 0; x <= 200; x++ {
		got := isqrt(x)
		want := int(math.Ceil(math.Sqrt(float64(x))))
		if got != want {
			t.Fatalf("isqrt(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestPipelinedBroadcastNCCOnly(t *testing.T) {
	// All nodes learn all tokens using zero local messages, in Θ(n·ell)
	// rounds — the global-only baseline of E11.
	g := graph.Path(24)
	n := g.N()
	out, m, err := sim.RunPipeline(g, sim.Config{Seed: 31}, pipelinedBroadcast(func(id int) []Token {
		if id%3 != 0 {
			return nil
		}
		return []Token{{A: int64(id), B: 7, C: 9}}
	}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalMsgs != 0 {
		t.Fatalf("NCC-only broadcast used %d local messages", m.LocalMsgs)
	}
	wantCount := (n + 2) / 3
	for v := 0; v < n; v++ {
		if len(out[v]) != wantCount {
			t.Fatalf("node %d knows %d tokens, want %d", v, len(out[v]), wantCount)
		}
	}
	if m.Rounds != n*1+sim.Log2Ceil(n) {
		t.Fatalf("Rounds = %d, want n*ell+logN = %d", m.Rounds, n+sim.Log2Ceil(n))
	}
}

func TestPipelinedBroadcastMultiplePerNode(t *testing.T) {
	g := graph.Path(10)
	n := g.N()
	const ell = 3
	out := make([][]Token, n)
	// The trace recorded from the blocking form, before a machine existed.
	pin := simtest.Pin{Metrics: sim.Metrics{Rounds: 34, GlobalMsgs: 270, GlobalBits: 10800, MaxGlobalSend: 4, MaxGlobalRecv: 2}, Sum: 0xd9b37df2780b8b25}
	simtest.Machines(t, "pipelined", g, 33, pin, func(env *sim.Env, emit func(...int64)) sim.StepProgram {
		mine := make([]Token, ell)
		for j := range mine {
			mine[j] = Token{A: int64(env.ID()), B: int64(j), C: 1}
		}
		m := NewPipelinedBroadcastMachine(env, mine, ell)
		return sim.Then(m, func(env *sim.Env) {
			out[env.ID()] = m.Out
			emit(tokenWords(m.Out)...)
		})
	})
	for v := 0; v < n; v++ {
		if len(out[v]) != n*ell {
			t.Fatalf("node %d knows %d tokens, want %d", v, len(out[v]), n*ell)
		}
	}
}

// Failure injection: understating k (the global token bound) shortens the
// schedule but must terminate and still deliver to most nodes; overstating
// k only adds rounds. Termination and no-panic are the contract.
func TestDisseminateMisdeclaredK(t *testing.T) {
	g := graph.Grid(6, 6)
	n := g.N()
	mk := func(id int) []Token {
		if id < 8 {
			return []Token{{A: int64(id)}}
		}
		return nil
	}
	for _, declared := range []int{4, 8, 32} { // true k = 8
		out, _, err := sim.RunPipeline(g, sim.Config{Seed: int64(declared)}, disseminate(mk, declared, 1))
		if err != nil {
			t.Fatalf("declared k=%d: %v", declared, err)
		}
		if declared >= 8 {
			for v := 0; v < n; v++ {
				if len(out[v]) != 8 {
					t.Fatalf("declared k=%d: node %d knows %d tokens, want 8", declared, v, len(out[v]))
				}
			}
		}
	}
}
