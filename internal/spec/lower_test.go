package spec

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestConfigDefenses pins what each deployment kind lowers to on the
// engine config.
func TestConfigDefenses(t *testing.T) {
	powerlaw := Topology{Kind: "powerlaw", Nodes: 200}
	cases := []struct {
		name     string
		topo     Topology
		defenses []Defense
		check    func(t *testing.T, cfg sim.Config)
	}{
		{"host skips the star hub", Topology{Kind: "star", Nodes: 50},
			[]Defense{{Kind: "host", Fraction: 1, Rate: 0.01}},
			func(t *testing.T, cfg sim.Config) {
				if len(cfg.ScanRateOverride) != 49 {
					t.Errorf("%d overrides, want 49 (every leaf)", len(cfg.ScanRateOverride))
				}
				if _, ok := cfg.ScanRateOverride[topology.Hub]; ok {
					t.Error("the hub got a host filter")
				}
			}},
		{"edge_router limits every edge router", powerlaw,
			[]Defense{{Kind: "edge_router", Rate: 0.4}},
			func(t *testing.T, cfg sim.Config) {
				if want := sim.DeployEdgeRouters(cfg.Roles); len(want) == 0 || !slices.Equal(cfg.LimitedNodes, want) {
					t.Errorf("LimitedNodes = %v, want the edge routers %v", cfg.LimitedNodes, want)
				}
				if cfg.BaseRate != 0.4 || len(cfg.LimitedLinks) != 0 {
					t.Errorf("BaseRate %v, %d limited links; want 0.4 and none", cfg.BaseRate, len(cfg.LimitedLinks))
				}
			}},
		{"backbone_cap caps every backbone router", powerlaw,
			[]Defense{{Kind: "backbone_cap", HubCap: 40}},
			func(t *testing.T, cfg sim.Config) {
				backbone := sim.DeployBackbone(cfg.Roles)
				if len(backbone) == 0 || len(cfg.NodeCaps) != len(backbone) {
					t.Fatalf("%d node caps for %d backbone routers", len(cfg.NodeCaps), len(backbone))
				}
				for _, b := range backbone {
					if cfg.NodeCaps[b] != 40 {
						t.Errorf("backbone router %d capped at %d, want 40", b, cfg.NodeCaps[b])
					}
				}
			}},
		{"equal-rate link limits stack", powerlaw,
			[]Defense{{Kind: "edge", Rate: 0.4}, {Kind: "backbone", Rate: 0.4}},
			func(t *testing.T, cfg sim.Config) {
				uplinks := sim.DeployEdgeUplinks(cfg.Graph, cfg.Roles, cfg.Subnet)
				if len(uplinks) == 0 || !slices.Equal(cfg.LimitedLinks, uplinks) {
					t.Errorf("LimitedLinks = %v, want the edge uplinks %v", cfg.LimitedLinks, uplinks)
				}
				if want := sim.DeployBackbone(cfg.Roles); !slices.Equal(cfg.LimitedNodes, want) {
					t.Errorf("LimitedNodes = %v, want the backbone %v", cfg.LimitedNodes, want)
				}
				if cfg.BaseRate != 0.4 {
					t.Errorf("BaseRate = %v, want 0.4", cfg.BaseRate)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Spec{
				Format: Format, Version: Version, Topology: tc.topo,
				Worm: Worm{Kind: "random", Beta: 0.5}, Defenses: tc.defenses,
			}
			if _, err := s.Compile(); err != nil {
				t.Fatalf("Compile: %v", err)
			}
			cfg, err := s.Config(nil)
			if err != nil {
				t.Fatalf("Config: %v", err)
			}
			tc.check(t, cfg)
		})
	}
}

// TestModelUnsupportedKinds: the node-level deployments have no closed
// form of their own.
func TestModelUnsupportedKinds(t *testing.T) {
	for _, d := range []Defense{{Kind: "edge_router", Rate: 0.4}, {Kind: "backbone_cap", HubCap: 40}} {
		s := &Spec{
			Format: Format, Version: Version, Topology: Topology{Kind: "powerlaw", Nodes: 100},
			Worm: Worm{Kind: "random", Beta: 0.5}, Defenses: []Defense{d},
		}
		if _, err := s.Model(); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Model error %v, want ErrUnsupported", d.Kind, err)
		}
	}
}
