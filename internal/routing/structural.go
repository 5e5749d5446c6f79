package routing

import (
	"math/bits"

	"repro/internal/topology"
)

// Structural is the simulator's router: it returns, for every (node,
// destination) pair of a connected graph, the same directed link as
// Build's all-pairs BFS table, from O(N + C²·w/8) state instead of
// O(N²). A host — a degree-1 node hanging off a router — has one move,
// its uplink, so shortest paths decompose as host → edge router →
// (core path) → edge router → host and only the core × core hop table
// is materialised. Because hosts are leaves, a BFS over the core alone
// dequeues core nodes in the same order as Build's full-graph BFS, and
// each core node's parent (its next hop) is the same neighbor: the
// router matches the dense table exactly, tie-breaks included. Graphs
// with few hosts (m≥2 preferential attachment, rings, grids) simply
// have a larger core.
//
// The core table is slot-compressed: a core node's next hop toward
// any destination is one of its core neighbors, so instead of a 4-byte
// directed-link index per (node, destination) pair it stores the
// *position* of that neighbor within the node's core adjacency list,
// bit-packed at bits.Len(deg-1) bits per entry — never more than the
// 32 bits a dense int32 entry takes. Degree-1 core nodes (stub routers
// with a single transit uplink) cost zero bits: their next hop is
// always their only neighbor. On the two-level AS graphs the simulator
// scales on this shrinks the core table to a fraction of a bit per
// entry; at 10M hosts (~41k core nodes) a dense int32 core table would
// be ~6.8 GB, the packed one a few hundred MB.
//
// A Structural is immutable after NewStructural and safe to share
// across goroutines.
type Structural struct {
	links *Links
	nc    int
	// node[v] is what routing needs to know about v, in one 12-byte
	// record: at a million hosts a lookup toward a random destination
	// then misses cache once, not once per field. A host's own exit is
	// its only link, links.start[v].
	node []nodeRoute

	// CSR adjacency of the core-induced subgraph in each node's
	// insertion order (matching Build's BFS tie-breaking discipline).
	// fwdLink[k] is the directed-link index core node -> neighbor for
	// CSR entry k: the value a packed slot decodes to.
	coreStart []int32
	coreAdj   []int32
	fwdLink   []int32

	// Column cd holds, for every core node cu, the slot of cu's
	// next-hop neighbor toward cd within cu's core adjacency list, at
	// wbits[cu] bits (bits.Len(deg-1); zero for degree<=1). rowOff[cu]
	// is the bit offset of cu's field within a column; colBits =
	// rowOff[nc] is the column stride. The entry for cu == cd is never
	// read (HopLink short-circuits it).
	hopBits []uint64
	rowOff  []int32
	wbits   []uint8
	colBits int
}

// nodeRoute is one node's routing record.
type nodeRoute struct {
	// attach is the core router a degree-1 host hangs off, -1 for core
	// nodes.
	attach int32
	// core is the node's dense core index, or for a host its router's:
	// the core column a packet toward the node routes by.
	core int32
	// down is the directed-link index attach -> host, the final hop
	// toward a host (-1 for core nodes).
	down int32
}

// NewStructural builds the router for g, or returns nil when g's core
// is disconnected — which happens exactly when g is: the packed table
// has no "unreachable" sentinel, and the engine rejects disconnected
// graphs anyway.
func NewStructural(g *topology.Graph, links *Links) *Structural {
	n := g.N()
	s := &Structural{links: links, node: make([]nodeRoute, n)}
	coreNode := make([]int32, 0, n)
	for u := 0; u < n; u++ {
		s.node[u] = nodeRoute{attach: -1, down: -1}
		adj := g.Neighbors(u)
		if len(adj) == 1 && len(g.Neighbors(int(adj[0]))) > 1 {
			s.node[u].attach = adj[0]
		} else {
			s.node[u].core = int32(len(coreNode))
			coreNode = append(coreNode, int32(u))
		}
	}
	nc := len(coreNode)
	s.nc = nc

	// Per core node: its core neighbors, in insertion order, feed the
	// CSR; one pass over its sorted outgoing links records the final
	// hop down to each host it serves.
	s.coreStart = make([]int32, nc+1)
	s.coreAdj = make([]int32, 0, nc*4)
	s.fwdLink = make([]int32, 0, nc*4)
	for ci, u := range coreNode {
		s.coreStart[ci] = int32(len(s.coreAdj))
		for _, v := range g.Neighbors(int(u)) {
			if s.node[v].attach < 0 {
				s.coreAdj = append(s.coreAdj, s.node[v].core)
				s.fwdLink = append(s.fwdLink, int32(links.Index(int(u), int(v))))
			}
		}
		for li := links.start[u]; li < links.start[u+1]; li++ {
			if h := &s.node[links.to[li]]; h.attach == u {
				h.down, h.core = li, int32(ci)
			}
		}
	}
	s.coreStart[nc] = int32(len(s.coreAdj))

	if !s.coreConnected() {
		return nil
	}
	s.buildPacked()
	return s
}

// coreConnected reports whether the core-induced subgraph is connected
// — the precondition of the packed table (every non-self slot must
// decode to a real hop, so there is no room for an "unreachable"
// sentinel).
func (s *Structural) coreConnected() bool {
	nc := s.nc
	if nc <= 1 {
		return true
	}
	seen := make([]bool, nc)
	queue := make([]int32, 0, nc)
	seen[0] = true
	queue = append(queue, 0)
	visited := 1
	for len(queue) > 0 {
		cv := queue[0]
		queue = queue[1:]
		for k := s.coreStart[cv]; k < s.coreStart[cv+1]; k++ {
			if cw := s.coreAdj[k]; !seen[cw] {
				seen[cw] = true
				visited++
				queue = append(queue, cw)
			}
		}
	}
	return visited == nc
}

// buildPacked fills the slot-compressed hop columns. The BFS per
// destination visits neighbors in CSR (graph insertion) order — the
// same tie-breaking as Build, so a decoded slot is always the
// directed link Build's table names.
func (s *Structural) buildPacked() {
	nc := s.nc
	s.wbits = make([]uint8, nc)
	s.rowOff = make([]int32, nc+1)
	off := int32(0)
	for ci := 0; ci < nc; ci++ {
		if deg := int(s.coreStart[ci+1] - s.coreStart[ci]); deg > 1 {
			s.wbits[ci] = uint8(bits.Len(uint(deg - 1)))
		}
		s.rowOff[ci] = off
		off += int32(s.wbits[ci])
	}
	s.rowOff[nc] = off
	s.colBits = int(off)
	totalBits := nc * s.colBits
	s.hopBits = make([]uint64, (totalBits+63)/64)

	// twinSlot[k]: CSR entry k is (cu -> cv); twinSlot[k] is the
	// position of cu within cv's own adjacency list. When a BFS from a
	// destination discovers cv through entry k, cv's next hop is cu,
	// stored packed as cu's slot in cv's list.
	type edgeKey struct{ a, b int32 }
	pos := make(map[edgeKey]int32, len(s.coreAdj))
	for cu := 0; cu < nc; cu++ {
		for k := s.coreStart[cu]; k < s.coreStart[cu+1]; k++ {
			pos[edgeKey{int32(cu), s.coreAdj[k]}] = k - s.coreStart[cu]
		}
	}
	twinSlot := make([]int32, len(s.coreAdj))
	for cu := 0; cu < nc; cu++ {
		for k := s.coreStart[cu]; k < s.coreStart[cu+1]; k++ {
			twinSlot[k] = pos[edgeKey{s.coreAdj[k], int32(cu)}]
		}
	}

	// One BFS per core destination cd: discovering neighbor cw from cv
	// means cv is cw's parent toward cd, so cw's packed slot is cv's
	// position within cw's adjacency list.
	seen := make([]int32, nc)
	for ci := range seen {
		seen[ci] = -1
	}
	queue := make([]int32, 0, nc)
	for cd := 0; cd < nc; cd++ {
		colBase := cd * s.colBits
		seen[cd] = int32(cd)
		queue = append(queue[:0], int32(cd))
		for len(queue) > 0 {
			cv := queue[0]
			queue = queue[1:]
			for k := s.coreStart[cv]; k < s.coreStart[cv+1]; k++ {
				cw := s.coreAdj[k]
				if seen[cw] != int32(cd) {
					seen[cw] = int32(cd)
					packSlot(s.hopBits, colBase+int(s.rowOff[cw]), s.wbits[cw], twinSlot[k])
					queue = append(queue, cw)
				}
			}
		}
	}
}

// packSlot writes the w low bits of val at bit offset off. Fields may
// straddle a word boundary; words are assumed zero-initialised.
func packSlot(words []uint64, off int, w uint8, val int32) {
	if w == 0 {
		return
	}
	word, shift := off>>6, uint(off&63)
	words[word] |= uint64(val) << shift
	if shift+uint(w) > 64 {
		words[word+1] |= uint64(val) >> (64 - shift)
	}
}

// unpackSlot reads a w-bit field at bit offset off.
func unpackSlot(words []uint64, off int, w uint8) int32 {
	if w == 0 {
		return 0
	}
	word, shift := off>>6, uint(off&63)
	v := words[word] >> shift
	if shift+uint(w) > 64 {
		v |= words[word+1] << (64 - shift)
	}
	return int32(v & (1<<w - 1))
}

// HopLink returns the directed-link index of u's next hop toward
// destination d, or -1 when u == d: the link Build(g).NextHop(u, d)
// names.
func (s *Structural) HopLink(u, d int) int32 {
	if u == d {
		return -1
	}
	nu := s.node[u]
	if nu.attach >= 0 {
		return s.links.start[u] // a host's only exit
	}
	nd := s.node[d]
	if int(nd.attach) == u {
		return nd.down // final hop down to the host
	}
	cu := nu.core
	slot := unpackSlot(s.hopBits, int(nd.core)*s.colBits+int(s.rowOff[cu]), s.wbits[cu])
	return s.fwdLink[int(s.coreStart[cu])+int(slot)]
}

// Core returns the number of core (non-host) nodes.
func (s *Structural) Core() int { return s.nc }

// Hosts returns the number of degree-1 hosts routed structurally.
func (s *Structural) Hosts() int { return len(s.node) - s.nc }
