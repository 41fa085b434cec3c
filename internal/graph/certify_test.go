package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestCertifyRejects feeds Certify one wrong row per case and checks the
// error names the source, the bad node and the rule it breaks. The graph is
// the path 0-1-2-3 with weights 2, 3, 4 plus an isolated node 4, so from
// source 0 the exact row is [0 2 5 9 Inf].
func TestCertifyRejects(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 4)
	exact := []int64{0, 2, 5, 9, Inf}
	if err := Certify(g, 0, exact); err != nil {
		t.Fatalf("exact row rejected: %v", err)
	}
	with := func(v int, x int64) []int64 {
		d := slices.Clone(exact)
		d[v] = x
		return d
	}
	heavier := g.Reweight(func(u, v int, w int64) int64 { return w + 1 })
	for _, c := range []struct {
		name string
		src  int
		d    []int64
		want string
	}{
		{"cell +1", 0, with(3, 10), "node 3: edge to 2 relaxes it"},
		{"cell -1", 0, with(3, 8), "node 3: no tight neighbour"},
		{"cell -1 next to the source", 0, with(1, 1), "node 1: no tight neighbour"},
		{"Inf where finite", 0, with(3, Inf), "node 3: edge to 2 relaxes it"},
		{"finite where Inf", 0, with(4, 7), "node 4: no tight neighbour"},
		{"negative entry", 0, with(2, -3), "node 1: edge to 2 relaxes it"},
		{"d[src] != 0", 0, with(0, 1), "d[source] = 1, want 0"},
		{"row of another source", 0, Dijkstra(g, 2), "d[source] = 5, want 0"},
		{"row of another graph", 0, Dijkstra(heavier, 0), "node 1: edge to 0 relaxes it"},
		{"wrong length", 0, exact[:4], "4 entries for 5 nodes"},
		{"nil row", 0, nil, "0 entries for 5 nodes"},
		{"entry above Inf", 0, with(4, Inf+1), "node 4: d = 2305843009213693952 is above Inf"},
		{"source out of range", 5, exact, "source 5 out of range"},
		{"negative source", -1, exact, "source -1 out of range"},
	} {
		err := Certify(g, c.src, c.d)
		if err == nil {
			t.Errorf("%s: %v certified", c.name, c.d)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "source") {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestCertifyRejectsEveryOneCellCorruption certifies Dijkstra's row of every
// source of two graphs, then corrupts each cell of each row by +1, -1 and
// Inf in turn: every corrupted row must be rejected.
func TestCertifyRejectsEveryOneCellCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*Graph{Grid(8, 8), WithRandomWeights(SparseConnected(60, 1.3, rng), 9, rng)} {
		for src := 0; src < g.N(); src++ {
			d := Dijkstra(g, src)
			if err := Certify(g, src, d); err != nil {
				t.Fatalf("Dijkstra's row rejected: %v", err)
			}
			for v, dv := range d {
				for _, bad := range []int64{dv + 1, dv - 1, Inf} {
					if bad == dv {
						continue
					}
					d[v] = bad
					if Certify(g, src, d) == nil {
						t.Fatalf("source %d: d[%d] = %d (exact %d) certified", src, v, bad, dv)
					}
				}
				d[v] = dv
			}
		}
	}
}

// TestCertifyRejectsOverweightEdge: an edge above WeightLimit can make a
// path sum to Inf, so the row APSP gives for a connected path reads
// "unreachable" past it — a row the relax and tight rules accept. Certify
// must refuse it, and Dijkstra's row too, naming the edge and the limit; at
// the limit itself the exact row passes.
func TestCertifyRejectsOverweightEdge(t *testing.T) {
	lim := Path(4).WeightLimit()
	at := Path(4).Reweight(func(_, _ int, _ int64) int64 { return lim })
	if err := Certify(at, 0, Dijkstra(at, 0)); err != nil {
		t.Fatalf("a path at the weight limit: %v", err)
	}
	heavy := Path(4).Reweight(func(u, _ int, _ int64) int64 {
		if u == 1 {
			return 4 * lim
		}
		return 1
	})
	want := fmt.Sprintf("edge {1,2} weighs %d, above the weight limit %d", 4*lim, lim)
	if row := APSP(heavy)[0]; row[2] != Inf {
		t.Fatalf("APSP over the overweight edge gave %v; the case needs an Inf past it", row)
	}
	for _, d := range [][]int64{APSP(heavy)[0], Dijkstra(heavy, 0)} {
		err := Certify(heavy, 0, d)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("row %v: Certify = %v, want an error containing %q", d, err, want)
		}
	}
}

// FuzzCertify holds Certify to Dijkstra: the fuzzer's bytes build a small
// weighted graph, possibly disconnected, and pick a source, one cell and a
// mutation of it. The verdict must be "certified" exactly when the mutated
// row equals Dijkstra's. With op's top bit set the weights are heavy,
// WeightLimit minus a byte, so path sums come close to Inf: Dijkstra must
// still give every reachable node a distance in [0, Inf), and the route the
// next-hop tables take to it must weigh exactly that.
func FuzzCertify(f *testing.F) {
	f.Add([]byte{6, 0, 1, 3, 1, 2, 4, 2, 3, 1, 3, 4, 7, 4, 5, 2, 0, 5, 9}, uint8(0), uint8(3), uint8(0), int64(0))
	f.Add([]byte{6, 0, 1, 3, 1, 2, 4, 2, 3, 1, 3, 4, 7, 4, 5, 2, 0, 5, 9}, uint8(2), uint8(5), uint8(1), int64(0))
	f.Add([]byte{6, 0, 1, 3, 1, 2, 4, 2, 3, 1, 3, 4, 7, 4, 5, 2, 0, 5, 9}, uint8(0), uint8(3), uint8(3), int64(0))
	f.Add([]byte{5, 0, 1, 1, 2, 3, 5}, uint8(1), uint8(4), uint8(2), int64(0))
	f.Add([]byte{5, 0, 1, 1, 2, 3, 5}, uint8(0), uint8(3), uint8(3), int64(0))
	f.Add([]byte{9, 0, 4, 2, 4, 8, 2, 8, 1, 6, 1, 0, 1}, uint8(4), uint8(8), uint8(4), int64(-7))
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1}, uint8(2), uint8(1), uint8(4), int64(Inf+1))
	f.Add([]byte{1}, uint8(0), uint8(0), uint8(0), int64(0))
	f.Add([]byte{6, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0}, uint8(0), uint8(5), uint8(128), int64(0))
	f.Add([]byte{6, 0, 1, 3, 1, 2, 4, 2, 3, 1, 3, 4, 7, 4, 5, 2, 0, 5, 9}, uint8(0), uint8(4), uint8(129), int64(0))
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 0, 8, 9, 0, 9, 10, 0, 10, 11, 0, 11, 12, 0, 12, 13, 0, 13, 14, 0, 14, 15, 0}, uint8(0), uint8(15), uint8(131), int64(0))
	f.Add([]byte{2, 0, 1, 0}, uint8(1), uint8(0), uint8(132), int64(Inf-1))
	f.Fuzz(func(t *testing.T, shape []byte, src, cell, op uint8, val int64) {
		if len(shape) == 0 {
			return
		}
		n := 1 + int(shape[0])%16
		g := New(n)
		heavy := op&0x80 != 0
		for i := 1; i+2 < len(shape); i += 3 {
			u, v, w := int(shape[i])%n, int(shape[i+1])%n, 1+int64(shape[i+2])%32
			if heavy {
				w = g.WeightLimit() - int64(shape[i+2])
			}
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, w)
			}
		}
		s := int(src) % n
		want := Dijkstra(g, s)
		hops, tables := BFS(g, s), NextHops(g, APSP(g))
		for v, dv := range want {
			if reachable := hops[v] < Inf; reachable != (dv >= 0 && dv < Inf) {
				t.Fatalf("d(%d,%d) = %d, reachable %v", s, v, dv, reachable)
			}
			if dv < Inf {
				if w, ok := PathWeight(g, FollowRoute(tables, s, v)); !ok || w != dv {
					t.Fatalf("route %d->%d weighs %d (a path: %v), distance %d", s, v, w, ok, dv)
				}
			}
		}
		d := slices.Clone(want)
		c := int(cell) % n
		switch op % 5 {
		case 1:
			d[c]++
		case 2:
			d[c]--
		case 3:
			d[c] = Inf
		case 4:
			d[c] = val
		}
		err := Certify(g, s, d)
		if exact := slices.Equal(d, want); exact != (err == nil) {
			t.Fatalf("row %v (Dijkstra %v) from %d: exact %v, Certify: %v", d, want, s, exact, err)
		}
	})
}

// BenchmarkCertifyAPSP compares certifying every row of the 32×32 grid's
// distance matrix with computing the matrix.
func BenchmarkCertifyAPSP(b *testing.B) {
	g := Grid(32, 32)
	dist := APSP(g)
	b.Run("certify", func(b *testing.B) {
		for b.Loop() {
			for s, row := range dist {
				if err := Certify(g, s, row); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("apsp", func(b *testing.B) {
		for b.Loop() {
			APSP(g)
		}
	})
}
