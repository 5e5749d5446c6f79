package routing

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// TestStructuralPackedMatchesLegacy: on host-majority graphs the
// bit-packed slot columns must decode to exactly the directed links a
// legacy dense int32 core × core table holds — Build's next hop
// between every pair of core nodes — read straight from the columns,
// not through HopLink's host shortcuts. The packed table must also be
// smaller than that dense table.
func TestStructuralPackedMatchesLegacy(t *testing.T) {
	star, err := topology.Star(40)
	if err != nil {
		t.Fatal(err)
	}
	hg, _, _, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones: 2, EdgesPer: 4, HostsPerSubnet: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl, _, _, err := topology.TwoLevel(topology.TwoLevelConfig{
		ASes: 24, AttachM: 2, TransitFraction: 0.25, HostsPerStub: 8,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ba1, err := topology.BarabasiAlbert(150, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *topology.Graph
	}{
		{"star", star}, {"hierarchical", hg}, {"twolevel", tl}, {"ba-m1", ba1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			links := EnumerateLinks(g)
			s := NewStructural(g, links)
			if s == nil {
				t.Fatal("NewStructural returned nil for a connected graph")
			}
			// The legacy table: coreHop[ci*nc+cj] is the directed-link
			// index of ci's dense next hop toward cj, -1 on the diagonal.
			nc := s.Core()
			coreNode := make([]int, nc)
			for v := range s.node {
				if s.node[v].attach < 0 {
					coreNode[s.node[v].core] = v
				}
			}
			tab := Build(g)
			coreHop := make([]int32, nc*nc)
			for ci, u := range coreNode {
				for cj, d := range coreNode {
					coreHop[ci*nc+cj] = -1
					if ci != cj {
						coreHop[ci*nc+cj] = int32(links.Index(u, tab.NextHop(u, d)))
					}
				}
			}
			for ci := 0; ci < nc; ci++ {
				if w := s.wbits[ci]; w > 32 {
					t.Fatalf("core node %d: %d-bit slot, wider than an int32 entry", ci, w)
				}
				for cj := 0; cj < nc; cj++ {
					if ci == cj {
						continue
					}
					slot := unpackSlot(s.hopBits, cj*s.colBits+int(s.rowOff[ci]), s.wbits[ci])
					if deg := s.coreStart[ci+1] - s.coreStart[ci]; slot >= deg {
						t.Fatalf("core (%d,%d): slot %d out of range for degree %d", ci, cj, slot, deg)
					}
					if got, want := s.fwdLink[int(s.coreStart[ci])+int(slot)], coreHop[ci*nc+cj]; got != want {
						t.Fatalf("core (%d,%d): packed link %d, legacy %d", ci, cj, got, want)
					}
				}
			}
			if packed, dense := 8*len(s.hopBits), 4*nc*nc; nc > 8 && packed >= dense {
				t.Errorf("packed core table %d B not smaller than dense %d B", packed, dense)
			}
		})
	}
}
