package routing

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/helpers"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// buildInstance creates a consistent random token-routing instance:
// S and R sampled with pS/pR, each sender sends tokensPerSender tokens to
// uniformly random receivers.
func buildInstance(n int, pS, pR float64, tokensPerSender int, seed int64) []Spec {
	rng := rand.New(rand.NewSource(seed))
	var senders, receivers []int
	inS := make([]bool, n)
	inR := make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < pS {
			inS[v] = true
			senders = append(senders, v)
		}
		if rng.Float64() < pR {
			inR[v] = true
			receivers = append(receivers, v)
		}
	}
	// Guarantee non-empty sets.
	if len(senders) == 0 {
		inS[0] = true
		senders = append(senders, 0)
	}
	if len(receivers) == 0 {
		inR[n-1] = true
		receivers = append(receivers, n-1)
	}
	specs := make([]Spec, n)
	idx := map[[2]int]int64{}
	for _, s := range senders {
		for t := 0; t < tokensPerSender; t++ {
			r := receivers[rng.Intn(len(receivers))]
			key := [2]int{s, r}
			i := idx[key]
			idx[key]++
			tok := Token{Label: Label{S: s, R: r, I: i}, Value: int64(s*1000003 + r*101 + int(i))}
			specs[s].Send = append(specs[s].Send, tok)
			specs[r].Expect = append(specs[r].Expect, tok.Label)
		}
	}
	kR := 0
	for _, sp := range specs {
		if len(sp.Expect) > kR {
			kR = len(sp.Expect)
		}
	}
	for v := range specs {
		specs[v].InS = inS[v]
		specs[v].InR = inR[v]
		specs[v].KS = tokensPerSender
		specs[v].KR = kR
		specs[v].PS = pS
		specs[v].PR = pR
	}
	return specs
}

// runRouting executes the protocol on g for the given instance and verifies
// full delivery.
func runRouting(t *testing.T, g *graph.Graph, specs []Spec, seed int64) sim.Metrics {
	t.Helper()
	if err := Validate(specs); err != nil {
		t.Fatalf("bad instance: %v", err)
	}
	n := g.N()
	got, m, err := sim.RunPipeline(g, sim.Config{Seed: seed}, Pipeline(specs, Params{}))
	if err != nil {
		t.Fatal(err)
	}
	// Every receiver must hold exactly its expected tokens with the values
	// the senders stored.
	want := map[Label]int64{}
	for _, sp := range specs {
		for _, tok := range sp.Send {
			want[tok.Label] = tok.Value
		}
	}
	for v := 0; v < n; v++ {
		expect := specs[v].Expect
		if len(got[v]) != len(expect) {
			t.Fatalf("node %d received %d tokens, want %d", v, len(got[v]), len(expect))
		}
		received := map[Label]int64{}
		for _, tok := range got[v] {
			received[tok.Label] = tok.Value
		}
		for _, l := range expect {
			val, ok := received[l]
			if !ok {
				t.Fatalf("node %d missing token %+v", v, l)
			}
			if val != want[l] {
				t.Fatalf("node %d token %+v has value %d, want %d", v, l, val, want[l])
			}
		}
	}
	return m
}

func TestRouteSmallGrid(t *testing.T) {
	g := graph.Grid(8, 8)
	specs := buildInstance(g.N(), 0.2, 0.2, 3, 1)
	runRouting(t, g, specs, 2)
}

func TestRouteSparseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.SparseConnected(100, 1.2, rng)
	specs := buildInstance(g.N(), 0.15, 0.1, 4, 4)
	runRouting(t, g, specs, 5)
}

func TestRoutePathGraph(t *testing.T) {
	// High-diameter topology: clusters are long path segments.
	g := graph.Path(64)
	specs := buildInstance(g.N(), 0.2, 0.2, 2, 6)
	runRouting(t, g, specs, 7)
}

func TestRouteBarbell(t *testing.T) {
	g := graph.Barbell(20, 10)
	specs := buildInstance(g.N(), 0.25, 0.25, 3, 8)
	runRouting(t, g, specs, 9)
}

func TestRouteAPSPShape(t *testing.T) {
	// The Theorem 1.1 workload shape: every node is a sender with one token
	// per receiver; receivers are a small sampled set.
	g := graph.Grid(7, 7)
	n := g.N()
	rng := rand.New(rand.NewSource(10))
	var receivers []int
	inR := make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.15 {
			inR[v] = true
			receivers = append(receivers, v)
		}
	}
	if len(receivers) == 0 {
		inR[0] = true
		receivers = append(receivers, 0)
	}
	specs := make([]Spec, n)
	for v := 0; v < n; v++ {
		for _, r := range receivers {
			tok := Token{Label: Label{S: v, R: r, I: 0}, Value: int64(v*7919 + r)}
			specs[v].Send = append(specs[v].Send, tok)
			specs[r].Expect = append(specs[r].Expect, tok.Label)
		}
	}
	for v := range specs {
		specs[v].InS = true
		specs[v].InR = inR[v]
		specs[v].KS = len(receivers)
		specs[v].KR = n
		specs[v].PS = 1.0
		specs[v].PR = 0.15
	}
	runRouting(t, g, specs, 11)
}

func TestRouteSingleToken(t *testing.T) {
	g := graph.Grid(5, 5)
	n := g.N()
	specs := make([]Spec, n)
	tok := Token{Label: Label{S: 3, R: 21, I: 0}, Value: 424242}
	specs[3].Send = []Token{tok}
	specs[21].Expect = []Label{tok.Label}
	specs[3].InS = true
	specs[21].InR = true
	for v := range specs {
		specs[v].KS = 1
		specs[v].KR = 1
		specs[v].PS = 0.05
		specs[v].PR = 0.05
	}
	runRouting(t, g, specs, 12)
}

func TestRouteEmptyInstance(t *testing.T) {
	g := graph.Path(12)
	specs := make([]Spec, 12)
	for v := range specs {
		specs[v].KS = 1
		specs[v].KR = 1
		specs[v].PS = 0.5
		specs[v].PR = 0.5
	}
	runRouting(t, g, specs, 13)
}

func TestRouteMultipleTokensSamePair(t *testing.T) {
	// Several tokens between the same (s, r), distinguished by index i.
	g := graph.Grid(5, 5)
	n := g.N()
	specs := make([]Spec, n)
	for i := int64(0); i < 5; i++ {
		tok := Token{Label: Label{S: 0, R: 24, I: i}, Value: 100 + i}
		specs[0].Send = append(specs[0].Send, tok)
		specs[24].Expect = append(specs[24].Expect, tok.Label)
	}
	specs[0].InS = true
	specs[24].InR = true
	for v := range specs {
		specs[v].KS = 5
		specs[v].KR = 5
		specs[v].PS = 0.05
		specs[v].PR = 0.05
	}
	runRouting(t, g, specs, 14)
}

func TestRouteRecvLoadStaysLogarithmic(t *testing.T) {
	// Lemma D.2: hash-routed traffic keeps per-round receive load O(log n).
	g := graph.Grid(9, 9)
	specs := buildInstance(g.N(), 0.2, 0.2, 4, 15)
	m := runRouting(t, g, specs, 16)
	logN := sim.Log2Ceil(g.N())
	if m.MaxGlobalRecv > 8*logN {
		t.Fatalf("max receive load %d exceeds 8 log n = %d (Lemma D.2)", m.MaxGlobalRecv, 8*logN)
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func() []Spec {
		specs := make([]Spec, 4)
		tok := Token{Label: Label{S: 0, R: 3, I: 0}, Value: 5}
		specs[0] = Spec{Send: []Token{tok}, InS: true, KS: 1, KR: 1}
		specs[3] = Spec{Expect: []Label{tok.Label}, InR: true, KS: 1, KR: 1}
		specs[1].KS, specs[1].KR = 1, 1
		specs[2].KS, specs[2].KR = 1, 1
		return specs
	}
	tests := []struct {
		name   string
		break_ func([]Spec)
	}{
		{"sender not in S", func(s []Spec) { s[0].InS = false }},
		{"receiver not in R", func(s []Spec) { s[3].InR = false }},
		{"KS exceeded", func(s []Spec) { s[0].KS = 0 }},
		{"wrong sender label", func(s []Spec) { s[0].Send[0].S = 2 }},
		{"expect without send", func(s []Spec) { s[3].Expect = append(s[3].Expect, Label{S: 1, R: 3, I: 9}); s[3].KR = 2 }},
		{"expect wrong address", func(s []Spec) { s[3].Expect[0].R = 2 }},
		{"duplicate label", func(s []Spec) {
			s[0].Send = append(s[0].Send, s[0].Send[0])
			s[0].KS = 2
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			specs := mk()
			tt.break_(specs)
			if err := Validate(specs); err == nil {
				t.Fatal("Validate accepted a broken instance")
			}
		})
	}
	if err := Validate(mk()); err != nil {
		t.Fatalf("Validate rejected a good instance: %v", err)
	}
}

func TestLabelPackDistinct(t *testing.T) {
	seen := map[uint64]Label{}
	for s := 0; s < 40; s++ {
		for r := 0; r < 40; r++ {
			for i := int64(0); i < 3; i++ {
				l := Label{S: s, R: r, I: i}
				k := l.pack()
				if prev, dup := seen[k]; dup {
					t.Fatalf("labels %+v and %+v pack identically", prev, l)
				}
				seen[k] = l
			}
		}
	}
}

func TestMuFormula(t *testing.T) {
	tests := []struct {
		k    int
		p    float64
		want int
	}{
		{100, 0.5, 2},   // min(10, 2)
		{100, 0.01, 10}, // min(10, 100)
		{4, 0.1, 2},     // min(2, 10)
		{0, 0.5, 1},     // clamped
		{100, 0, 10},    // p unknown -> sqrt(k)
	}
	for _, tt := range tests {
		if got := mu(tt.k, tt.p); got != tt.want {
			t.Fatalf("mu(%d,%v) = %d, want %d", tt.k, tt.p, got, tt.want)
		}
	}
}

func TestDeterministicRouting(t *testing.T) {
	g := graph.Grid(6, 6)
	specs := buildInstance(g.N(), 0.2, 0.2, 2, 17)
	m1 := runRouting(t, g, specs, 18)
	m2 := runRouting(t, g, specs, 18)
	if m1.Rounds != m2.Rounds || m1.GlobalMsgs != m2.GlobalMsgs {
		t.Fatalf("identical runs diverged: %+v vs %+v", m1, m2)
	}
}

// Property: random consistent instances on random connected graphs always
// deliver completely.
func TestQuickRoutingAlwaysDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, nRaw, tokRaw uint8) bool {
		n := 24 + int(nRaw%40)
		tokens := 1 + int(tokRaw%5)
		rng := rand.New(rand.NewSource(seed))
		g := graph.SparseConnected(n, 1.0, rng)
		specs := buildInstance(n, 0.25, 0.25, tokens, seed+1)
		if err := Validate(specs); err != nil {
			return false
		}
		got, _, err := sim.RunPipeline(g, sim.Config{Seed: seed}, Pipeline(specs, Params{}))
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if len(got[v]) != len(specs[v].Expect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: an inconsistent instance (a label expected but never
// sent) must not deadlock or corrupt other deliveries — the fixed schedules
// simply leave the orphan label unanswered.
func TestRouteInconsistentInstanceDegradesGracefully(t *testing.T) {
	g := graph.Grid(6, 6)
	n := g.N()
	specs := buildInstance(n, 0.2, 0.2, 3, 99)
	// Orphan label: receiver expects a token nobody sends.
	var victim int
	for v := range specs {
		if specs[v].InR {
			victim = v
			break
		}
	}
	orphan := Label{S: 0, R: victim, I: 999}
	specs[victim].Expect = append(specs[victim].Expect, orphan)
	specs[victim].KR++

	got, _, err := sim.RunPipeline(g, sim.Config{Seed: 101}, Pipeline(specs, Params{}))
	if err != nil {
		t.Fatal(err)
	}
	// The orphan is missing; everything else arrived.
	for v := 0; v < n; v++ {
		wantCount := len(specs[v].Expect)
		if v == victim {
			wantCount--
		}
		if len(got[v]) != wantCount {
			t.Fatalf("node %d received %d tokens, want %d", v, len(got[v]), wantCount)
		}
	}
	for _, tok := range got[victim] {
		if tok.Label == orphan {
			t.Fatal("orphan label was somehow delivered")
		}
	}
}

// TestRouteMisaddressedLabel writes down the boundary of collect's
// receiver-only rule (see startCollect) on the one kind of instance where it
// shows: node v lists a label whose R is another node u ("expect wrong
// address" to Validate). v's helpers request the token, it is answered and
// floods through the cluster — a 3x3 grid with µ = 2 is a single cluster —
// but v never takes it (its R is not v), and u takes it exactly if u looks at
// the batches passing by, which it does iff it expects anything itself.
func TestRouteMisaddressedLabel(t *testing.T) {
	g := graph.Grid(3, 3)
	const s, s2, u, v = 0, 1, 4, 8
	stray := Token{Label: Label{S: s, R: u, I: 0}, Value: 42}
	own := Token{Label: Label{S: s2, R: u, I: 0}, Value: 7}
	for _, tc := range []struct {
		name    string
		uExpect []Label
		uGets   []Token
	}{
		{"u expects nothing", nil, nil},
		{"u expects another label", []Label{own.Label}, []Token{stray, own}},
	} {
		specs := make([]Spec, g.N())
		for i := range specs {
			specs[i] = Spec{KS: 1, KR: 1, PS: 1, PR: 1}
		}
		specs[s].InS, specs[s].Send = true, []Token{stray}
		specs[v].InR, specs[v].Expect = true, []Label{stray.Label}
		if tc.uExpect != nil {
			specs[s2].InS, specs[s2].Send = true, []Token{own}
			specs[u].InR, specs[u].Expect = true, tc.uExpect
		}
		if Validate(specs) == nil {
			t.Fatalf("%s: Validate accepts the instance; it no longer tests the boundary", tc.name)
		}
		got, _, err := sim.RunPipeline(g, sim.Config{Seed: 3}, Pipeline(specs, Params{MuS: 2, MuR: 2}))
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			var want []Token
			if w == u {
				want = tc.uGets
			}
			if len(got[w]) != len(want) {
				t.Errorf("%s: node %d received %v, want %v", tc.name, w, got[w], want)
				continue
			}
			for i := range want {
				if got[w][i] != want[i] {
					t.Errorf("%s: node %d received %v, want %v", tc.name, w, got[w], want)
				}
			}
		}
	}
}

// TestAgreedDirectoryComparesOwners: two sessions in one run, over the same
// clustering (same µ for all four families) and with helper sampling saturated,
// so that in every cluster the same nodes — all of its members — announce each
// time, but announce different owners: the W members of that family. A
// directory agreed on the helper set alone would be the previous family's;
// every node must end up with exactly its own family's owners, each helped by
// the whole cluster.
func TestAgreedDirectoryComparesOwners(t *testing.T) {
	g := graph.Grid(12, 12) // nine clusters at µ = 1
	n := g.N()
	inW := [2][2]func(id int) bool{
		{func(id int) bool { return id%2 == 0 }, func(id int) bool { return id%3 == 0 }},
		{func(id int) bool { return id%3 == 1 }, func(id int) bool { return id%2 == 1 }},
	}
	params := Params{MuS: 1, MuR: 1, Helpers: helpers.Params{QBoost: n}}
	for _, eng := range simtest.Engines {
		var sessions [2][]*Session
		for i := range sessions {
			sessions[i] = make([]*Session, n)
		}
		_, err := sim.RunStep(g, sim.Config{Seed: 4, Engine: eng, Shards: 1}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			var sm *SessionMachine
			build := func(i int) func(*sim.Env) sim.StepProgram {
				return func(env *sim.Env) sim.StepProgram {
					sm = NewSessionMachine(env, inW[i][0](id), inW[i][1](id), 4, 4, 1, 1, params)
					return sm
				}
			}
			return sim.Sequence(
				build(0),
				sim.Finish(func(*sim.Env) { sessions[0][id] = sm.Out }),
				build(1),
				sim.Finish(func(*sim.Env) { sessions[1][id] = sm.Out }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		families := func(s *Session) []*family { return []*family{&s.famS, &s.famR} }
		for i := range sessions {
			for id, s := range sessions[i] {
				for j, f := range families(s) {
					want := map[int][]int{}
					for _, w := range f.res.Members {
						if inW[i][j](w) {
							want[w] = f.res.Members
						}
					}
					if !reflect.DeepEqual(f.helperSets, want) {
						t.Fatalf("%s: session %d family %d node %d: directory %v, want every W member of the cluster helped by all of %v", eng, i, j, id, f.helperSets, f.res.Members)
					}
					// One shard steps the nodes one after the other, so a
					// cluster's directory is built exactly once.
					rulers := families(sessions[i][f.res.Ruler])[j].helperSets
					if eng == sim.EngineStep && reflect.ValueOf(f.helperSets).Pointer() != reflect.ValueOf(rulers).Pointer() {
						t.Errorf("session %d family %d node %d: its directory is a copy of its ruler's", i, j, id)
					}
				}
			}
		}
	}
}

// TestAnnounceTableReadOnlyWhereHeard cuts an announce flood below its
// cluster's diameter: the "cluster" is a whole 64-path, and µ = 1 floods for
// 4⌈log n⌉ = 24 rounds. Every node announces, so the flood's table holds all 64
// records, but a node's directory must list exactly the helpers within 24 hops
// of it — the table read at the node's own first-arrival bits and nowhere else
// — although all 64 nodes present the same sim.Agreed key and keep being
// offered a neighbour's directory built from one helper more or less.
func TestAnnounceTableReadOnlyWhereHeard(t *testing.T) {
	g := graph.Path(64)
	n := g.N()
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	helps := func(id int) []int { return []int{id % 5, 5 + id%3} } // ascending owners
	const radius = 24
	for _, eng := range simtest.Engines {
		got := make([]map[int][]int, n)
		_, err := sim.RunStep(g, sim.Config{Seed: 1, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			if r := floodRounds(env, 1); r != radius {
				t.Errorf("flood runs %d rounds, the test assumes %d", r, radius)
			}
			a := newAnnounceMachine(env, helpers.Result{Ruler: 0, Members: members, Helps: helps(env.ID())}, 1)
			return sim.Then(a, func(env *sim.Env) { got[env.ID()] = a.Sets })
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			want := map[int][]int{}
			for h := max(v-radius, 0); h <= min(v+radius, n-1); h++ {
				for _, w := range helps(h) {
					want[w] = append(want[w], h)
				}
			}
			if !reflect.DeepEqual(got[v], want) {
				t.Fatalf("%s: node %d: directory %v, want the helpers within %d hops only: %v", eng, v, got[v], radius, want)
			}
		}
		if reflect.DeepEqual(got[0], got[n/2]) {
			t.Fatalf("%s: the end of the path and its middle heard different helpers and hold equal directories", eng)
		}
	}
}
