package routing_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/worm"
)

// TestStructuralMatchesDense: on every connected graph the structural
// router must name, for every (u, d), exactly the directed link of
// Build's BFS next hop — not merely an equal-length route. The graphs
// span host-majority shapes (star, hierarchical, two-level, m=1
// preferential attachment) and graphs with few or no hosts, where the
// core is most of the graph and equal-length ties abound (m=2 and m=3
// preferential attachment, an even ring, a grid). A disconnected graph
// has a disconnected core: the router is nil and the engine refuses
// the graph.
func TestStructuralMatchesDense(t *testing.T) {
	must := func(g *topology.Graph, err error) *topology.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
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
	edge := topology.New(2)
	if err := edge.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Two disjoint stars: hubs 0 and 1, hosts 2-7 on hub 0, 8-13 on
	// hub 1.
	split := topology.New(14)
	for h := 2; h < 14; h++ {
		if err := split.AddEdge(h/8, h); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name      string
		g         *topology.Graph
		minHosts  int // lower bound on degree-1 hosts, pins the shape
		connected bool
	}{
		{"star", must(topology.Star(40)), 39, true},
		{"hierarchical", hg, 96, true},
		{"twolevel", tl, 1, true},
		{"ba-m1", must(topology.BarabasiAlbert(150, 1, rand.New(rand.NewSource(3)))), 75, true},
		{"ba-m2", must(topology.BarabasiAlbert(120, 2, rand.New(rand.NewSource(5)))), 0, true},
		{"ba-m3", must(topology.BarabasiAlbert(120, 3, rand.New(rand.NewSource(6)))), 0, true},
		{"ring", must(topology.Ring(24)), 0, true},
		{"grid", must(topology.Grid(9, 9)), 0, true},
		{"edge", edge, 0, true},
		{"disconnected", split, 12, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			links := routing.EnumerateLinks(g)
			s := routing.NewStructural(g, links)
			if !tc.connected {
				if s != nil {
					t.Fatal("NewStructural accepted a disconnected core")
				}
				_, err := sim.New(sim.Config{
					Graph: g, Beta: 0.5, ScansPerTick: 1, Strategy: worm.NewRandomFactory(),
					InitialInfected: 1, Ticks: 1,
				})
				if !errors.Is(err, topology.ErrDisconnected) {
					t.Fatalf("sim.New on a disconnected graph: err %v, want %v", err, topology.ErrDisconnected)
				}
				return
			}
			if s == nil {
				t.Fatal("NewStructural returned nil for a connected graph")
			}
			if s.Hosts()+s.Core() != g.N() || s.Hosts() < tc.minHosts {
				t.Fatalf("hosts %d + core %d vs n %d (want >= %d hosts)", s.Hosts(), s.Core(), g.N(), tc.minHosts)
			}
			tab := routing.Build(g)
			n := g.N()
			for u := 0; u < n; u++ {
				if got := s.HopLink(u, u); got != -1 {
					t.Fatalf("HopLink(%d,%d) = %d, want -1", u, u, got)
				}
				for d := 0; d < n; d++ {
					if d == u {
						continue
					}
					if got, want := s.HopLink(u, d), int32(links.Index(u, tab.NextHop(u, d))); got != want {
						t.Fatalf("HopLink(%d,%d) = %d, dense next hop %d is link %d",
							u, d, got, tab.NextHop(u, d), want)
					}
				}
			}
		})
	}
}
