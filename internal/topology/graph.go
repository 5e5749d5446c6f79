// Package topology provides the network-graph substrate for the worm
// experiments: an undirected graph type, generators (star, power-law via
// Barabási–Albert preferential attachment as used by BRITE, Erdős–Rényi,
// ring, grid, an explicit hierarchical subnet topology, and a
// BRITE-style two-level AS internet — a power-law AS core whose stub
// ASes each serve a host subnet), degree queries, the spectral radius,
// and the paper's degree-ranked role assignment (top 5% of nodes by
// degree are backbone routers, the next 10% edge routers, the remainder
// end hosts) with the induced subnet partition.
//
// The two-level generator is also the scale substrate: its
// host-majority shape keeps the structural router's core table
// (routing.Structural) small, so graphs of 10⁵–10⁶ hosts stay
// memory-lean.
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over nodes 0..N-1. The zero value is
// an empty graph with no nodes; construct with New.
type Graph struct {
	n     int
	adj   [][]int32
	edges int
	// edgeSet dedupes edges during construction; keyed by packed (u,v)
	// with u < v.
	edgeSet map[int64]struct{}
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:       n,
		adj:     make([][]int32, n),
		edgeSet: make(map[int64]struct{}),
	}
}

func packEdge(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate
// edges are rejected with an error; out-of-range nodes likewise.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("topology: self-loop at node %d", u)
	}
	key := packEdge(u, v)
	if _, dup := g.edgeSet[key]; dup {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
	}
	g.edgeSet[key] = struct{}{}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.edges++
	return nil
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	_, ok := g.edgeSet[packEdge(u, v)]
	return ok
}

// Degree returns the degree of node u (0 for out-of-range nodes).
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.adj[u]
}

// Edges returns all edges as (u, v) pairs with u < v, in deterministic
// (sorted) order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for key := range g.edgeSet {
		out = append(out, [2]int{int(key >> 32), int(key & 0xffffffff)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ErrDisconnected reports that an operation requiring a connected graph
// was given a disconnected one.
var ErrDisconnected = errors.New("topology: graph is not connected")

// Connected reports whether the graph is connected (true for graphs with
// fewer than two nodes).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// DegreeSequence returns the degrees of all nodes, indexed by node.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, g.n)
	for u := range out {
		out[u] = len(g.adj[u])
	}
	return out
}

// MaxDegree returns the highest degree in the graph (0 if empty).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// NodesByDegreeDesc returns all node IDs sorted by degree descending,
// ties broken by node ID ascending (deterministic).
func (g *Graph) NodesByDegreeDesc() []int {
	out := make([]int, g.n)
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := len(g.adj[out[i]]), len(g.adj[out[j]])
		if di != dj {
			return di > dj
		}
		return out[i] < out[j]
	})
	return out
}
