// Package routing computes shortest-path routing state for a topology:
// per-node next-hop tables (BFS, hop-count metric, matching the paper's
// "shortest path algorithm"), distances, concrete paths, and per-link
// routing-table load. The load is what the paper calls "the number of
// routing table entries the link occupies" and is used to scale each
// rate-limited link's packet budget.
//
// The simulation engine routes with Structural (NewStructural): host
// up-links, final-hop down-links and a bit-packed core-only table,
// O(N + core²) instead of Build's O(N²) arrays. Hosts are leaves, so a
// BFS over the core dequeues core nodes in the same order as Build's
// full-graph BFS and Structural names the very link Build's next hop
// does, equal-length tie-breaks included (DESIGN.md §9). Build's Table
// stays the analysis path (Dist, PathCoverage, LinkWeights) and the
// tests' reference.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Table holds all-pairs shortest-path routing state for a graph with n
// nodes. Construct with Build.
type Table struct {
	n int
	// next[u*n+d] is the neighbor of u on u's chosen shortest path to d;
	// next[u*n+u] = u; -1 if d is unreachable from u.
	next []int32
	// dist[u*n+d] is the hop count from u to d (-1 if unreachable).
	dist []int32
}

// Build runs a BFS from every node of g and records distances and
// next hops. Ties between equal-length paths are broken by BFS discovery
// order, which is deterministic for a given graph. Disconnected pairs
// get distance -1 and next hop -1.
func Build(g *topology.Graph) *Table {
	n := g.N()
	t := &Table{
		n:    n,
		next: make([]int32, n*n),
		dist: make([]int32, n*n),
	}
	for i := range t.next {
		t.next[i] = -1
		t.dist[i] = -1
	}
	// BFS from each destination d computes, for every node u, the parent
	// of u on a shortest u->d path — which is exactly u's next hop toward
	// d. One BFS per destination therefore fills column d for all u.
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		t.next[d*n+d] = int32(d)
		t.dist[d*n+d] = 0
		queue = queue[:0]
		queue = append(queue, int32(d))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			dv := t.dist[int(v)*n+d]
			for _, w := range g.Neighbors(int(v)) {
				if t.next[int(w)*n+d] == -1 && int(w) != d {
					t.next[int(w)*n+d] = v
					t.dist[int(w)*n+d] = dv + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return t
}

// N returns the node count the table was built for.
func (t *Table) N() int { return t.n }

// NextHop returns u's next hop toward dst, u itself if u == dst, and -1
// if dst is unreachable or either node is out of range.
func (t *Table) NextHop(u, dst int) int {
	if u < 0 || u >= t.n || dst < 0 || dst >= t.n {
		return -1
	}
	return int(t.next[u*t.n+dst])
}

// Dist returns the hop distance from u to dst (-1 if unreachable or out
// of range).
func (t *Table) Dist(u, dst int) int {
	if u < 0 || u >= t.n || dst < 0 || dst >= t.n {
		return -1
	}
	return int(t.dist[u*t.n+dst])
}

// Path returns the node sequence from u to dst inclusive, or an error if
// unreachable.
func (t *Table) Path(u, dst int) ([]int, error) {
	if u < 0 || u >= t.n || dst < 0 || dst >= t.n {
		return nil, fmt.Errorf("routing: path (%d,%d) out of range [0,%d)", u, dst, t.n)
	}
	if t.Dist(u, dst) < 0 {
		return nil, fmt.Errorf("routing: %d unreachable from %d", dst, u)
	}
	path := []int{u}
	for u != dst {
		u = t.NextHop(u, dst)
		path = append(path, u)
	}
	return path, nil
}

// LinkID identifies an undirected link by its endpoints with U < V.
type LinkID struct{ U, V int }

// MakeLinkID normalizes (a, b) into a LinkID.
func MakeLinkID(a, b int) LinkID {
	if a > b {
		a, b = b, a
	}
	return LinkID{U: a, V: b}
}

// LinkLoads counts, for every link, the number of routing-table entries
// that use it: entry (u, d) contributes to link (u, NextHop(u, d)). The
// count for an undirected link sums both directions. Links carrying no
// entries are absent from the map.
func (t *Table) LinkLoads() map[LinkID]int {
	loads := make(map[LinkID]int)
	for u := 0; u < t.n; u++ {
		row := t.next[u*t.n : (u+1)*t.n]
		for d, nh := range row {
			if d == u || nh < 0 {
				continue
			}
			loads[MakeLinkID(u, int(nh))]++
		}
	}
	return loads
}

// LinkWeights converts LinkLoads into multiplicative weights normalized
// so the mean weight over the given links is 1. The paper multiplies a
// base rate (10 packets/tick) by a weight proportional to routing-table
// load, so heavily used links get proportionally more budget. Links not
// present in loads get the minimum weight floor (1/mean of one entry).
func (t *Table) LinkWeights(g *topology.Graph) map[LinkID]float64 {
	loads := t.LinkLoads()
	edges := g.Edges()
	if len(edges) == 0 {
		return map[LinkID]float64{}
	}
	total := 0
	for _, e := range edges {
		total += loads[MakeLinkID(e[0], e[1])]
	}
	mean := float64(total) / float64(len(edges))
	weights := make(map[LinkID]float64, len(edges))
	for _, e := range edges {
		id := MakeLinkID(e[0], e[1])
		l := loads[id]
		if mean <= 0 {
			weights[id] = 1
			continue
		}
		w := float64(l) / mean
		if w < 1/mean { // floor: every live link can carry something
			w = 1 / mean
		}
		weights[id] = w
	}
	return weights
}
