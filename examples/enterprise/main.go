// Enterprise: the paper's closing prescription (Sections 1 and 8) —
// "to secure an enterprise network, one must install rate limiting
// filters at the edge routers as well as some portion of the internal
// hosts". This example builds an explicit enterprise topology (backbone
// mesh, edge routers, subnets) and releases a local-preferential worm
// (Blaster-style) under four defense postures:
//
//  1. no defense,
//  2. edge-router rate limiting only,
//  3. host throttles on 40% of desktops only,
//  4. edge-router limiting AND host throttles combined.
//
// The edge-only posture barely helps because the worm spreads
// subnet-locally; the combination is what contains it.
//
// Run with: go run ./examples/enterprise
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/worm"
)

func main() {
	g, roles, subnet, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones:      3,
		EdgesPer:       4,
		HostsPerSubnet: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	localPref, err := worm.NewLocalPreferentialFactory(0.85)
	if err != nil {
		log.Fatal(err)
	}
	base := sim.Config{
		Graph:           g,
		Roles:           roles,
		Subnet:          subnet,
		Beta:            0.8,
		ScansPerTick:    10,
		Strategy:        localPref,
		InitialInfected: 1,
		Ticks:           400,
		Seed:            7,
		MaxQueue:        50,
	}
	uplinks := sim.DeployEdgeUplinks(g, roles, subnet)
	hosts, err := sim.DeployHostFraction(g, roles, 0.4, 7)
	if err != nil {
		log.Fatal(err)
	}
	throttle := make(map[int]float64, len(hosts))
	for _, h := range hosts {
		throttle[h] = 0.01 // Williamson-style: ~1 new contact per 100 ticks
	}

	postures := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"no defense", func(c *sim.Config) {}},
		{"edge routers only", func(c *sim.Config) {
			c.LimitedLinks = uplinks
			c.BaseRate = 0.2
		}},
		{"40% host throttles only", func(c *sim.Config) {
			c.ScanRateOverride = throttle
		}},
		{"edge routers + 40% host throttles", func(c *sim.Config) {
			c.LimitedLinks = uplinks
			c.BaseRate = 0.2
			c.ScanRateOverride = throttle
		}},
	}

	fmt.Println("Local-preferential worm in a 12-subnet enterprise (480 hosts)")
	fmt.Printf("%-36s %10s %10s %8s\n", "posture", "t(25%)", "t(50%)", "final")
	var t50 []float64
	for _, p := range postures {
		cfg := base
		p.mod(&cfg)
		// Replicas for each posture run concurrently on the bounded pool;
		// the averaged curves are identical for any job count.
		res, _, err := sim.MultiRun(context.Background(), cfg, 10, runner.WithJobs(4))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %10.0f %10.0f %7.0f%%\n",
			p.name, res.TimeToLevel(0.25), res.TimeToLevel(0.5), res.FinalInfected()*100)
		t50 = append(t50, res.TimeToLevel(0.5))
	}
	fmt.Println()
	fmt.Printf("edge-only slowdown:      %.1fx\n", t50[1]/t50[0])
	fmt.Printf("hosts-only slowdown:     %.1fx\n", t50[2]/t50[0])
	fmt.Printf("combined slowdown:       %.1fx\n", t50[3]/t50[0])
	fmt.Println("\nThe paper's conclusion: neither layer suffices alone — deploy both.")
}
