package graph

// Route reconstruction from APSP distances: per-destination forwarding
// tables and the walks that realize them. This is the compute-side half of
// the paper's IP-routing application (§1); the serve layer
// (internal/serve) keeps these tables resident and answers point-to-point
// queries from them, so the functions here are shared between the facade
// (hybrid.NextHops / hybrid.FollowRoute) and the server's request path.
// The distances they start from are checked by Certify (algorithms.go),
// which serve.NewTables runs on every row: on a certified matrix every
// node but the destination has a tight neighbour, so NextHops writes -1
// only for t == v and unreachable pairs.

// NextHops derives per-destination forwarding tables from an exact
// distance matrix. Entry [v][t] is the neighbor v forwards to on a
// shortest path toward t (-1 for t == v or unreachable). Ties break toward
// the smallest neighbor ID, so tables are deterministic and loop-free.
func NextHops(g *Graph, dist [][]int64) [][]int {
	n := g.N()
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		row := make([]int, n)
		for t := 0; t < n; t++ {
			row[t] = -1
			if t == v || dist[v][t] >= Inf {
				continue
			}
			for _, nb := range g.Neighbors(v) {
				if dist[nb.To][t] < Inf && nb.W+dist[nb.To][t] == dist[v][t] {
					if row[t] == -1 || nb.To < row[t] {
						row[t] = nb.To
					}
				}
			}
		}
		out[v] = row
	}
	return out
}

// FollowRoute walks the forwarding tables from s toward t and returns the
// node sequence, or nil if forwarding fails (loop or dead end). On tables
// from exact APSP the walk always realizes a shortest path.
func FollowRoute(tables [][]int, s, t int) []int { return AppendRoute(nil, tables, s, t) }

// AppendRoute is FollowRoute appending the walk to dst, so a caller that
// keeps dst's backing array (the server's request path) walks without
// allocating. It returns the extended slice, or nil if forwarding fails.
func AppendRoute(dst []int, tables [][]int, s, t int) []int {
	start := len(dst)
	dst = append(dst, s)
	for cur := s; cur != t; {
		if len(dst)-start > len(tables) {
			return nil // loop guard
		}
		cur = tables[cur][t]
		if cur < 0 {
			return nil
		}
		dst = append(dst, cur)
	}
	return dst
}

// PathWeight sums the edge weights along the node sequence path in g. It
// reports false when the path is empty or traverses a non-edge, so callers
// can distinguish "weight 0" from "not a path".
func PathWeight(g *Graph, path []int) (int64, bool) {
	if len(path) == 0 {
		return 0, false
	}
	var total int64
	for i := 1; i < len(path); i++ {
		w, ok := g.Weight(path[i-1], path[i])
		if !ok {
			return 0, false
		}
		total += w
	}
	return total, true
}
