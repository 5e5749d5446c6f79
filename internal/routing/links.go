package routing

import (
	"sort"

	"repro/internal/topology"
)

// Links is a stable enumeration of every directed link of a graph:
// link indexes are assigned by source node ascending, then destination
// ascending within a node, so index order equals the deterministic
// per-tick iteration order the simulator fixes for its series. A Links
// is immutable after EnumerateLinks and safe to share across
// goroutines; the engine keys all per-link hot-path state (queues,
// rate-limit budgets) by these small-integer indexes instead of
// (src,dst) map keys.
type Links struct {
	n int
	// start[u] is the index of u's first outgoing link; start[n] is the
	// total directed-link count. Outgoing links of u occupy
	// [start[u], start[u+1]).
	start []int32
	// to[i] is the destination of directed link i, ascending within
	// each source node.
	to []int32
	// from[i] is the source of directed link i.
	from []int32
}

// EnumerateLinks assigns every directed link of g its stable index.
func EnumerateLinks(g *topology.Graph) *Links {
	n := g.N()
	l := &Links{
		n:     n,
		start: make([]int32, n+1),
		to:    make([]int32, 0, 2*g.M()),
		from:  make([]int32, 0, 2*g.M()),
	}
	for u := 0; u < n; u++ {
		l.start[u] = int32(len(l.to))
		adj := append([]int32(nil), g.Neighbors(u)...)
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		l.to = append(l.to, adj...)
		for range adj {
			l.from = append(l.from, int32(u))
		}
	}
	l.start[n] = int32(len(l.to))
	return l
}

// N returns the node count the enumeration was built for.
func (l *Links) N() int { return l.n }

// Count returns the number of directed links (2·edges).
func (l *Links) Count() int { return len(l.to) }

// Outgoing returns the destinations of u's outgoing links in ascending
// order. The slice aliases internal state: callers must not mutate it.
// Link OutStart(u)+k is the link u -> Outgoing(u)[k].
func (l *Links) Outgoing(u int) []int32 { return l.to[l.start[u]:l.start[u+1]] }

// OutStart returns the index of u's first outgoing link.
func (l *Links) OutStart(u int) int { return int(l.start[u]) }

// From returns the source node of directed link i.
func (l *Links) From(i int) int { return int(l.from[i]) }

// To returns the destination node of directed link i.
func (l *Links) To(i int) int { return int(l.to[i]) }

// Index returns the index of directed link u -> v, or -1 when v is not
// a neighbor of u. Binary search over u's sorted destinations: O(log
// deg(u)), no allocation.
func (l *Links) Index(u, v int) int {
	lo, hi := int(l.start[u]), int(l.start[u+1])
	v32 := int32(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.to[mid] < v32 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(l.start[u+1]) && l.to[lo] == v32 {
		return lo
	}
	return -1
}
