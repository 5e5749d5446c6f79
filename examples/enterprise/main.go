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

	"repro/internal/spec"
)

func main() {
	base := spec.Spec{
		Format:  spec.Format,
		Version: spec.Version,
		Topology: spec.Topology{
			Kind: "enterprise", Backbones: 3, EdgesPerBackbone: 4, HostsPerSubnet: 40,
		},
		Worm:            spec.Worm{Kind: "local", Beta: 0.8, ScansPerTick: 10, LocalPref: 0.85},
		Ticks:           400,
		Seed:            7,
		InitialInfected: 1,
		MaxQueue:        50,
		// Replicas for each posture run concurrently on the bounded
		// pool; the averaged curves are identical for any job count.
		Run: &spec.Run{Runs: 10, Jobs: 4},
	}
	// Edge filters rate-limit every subnet uplink; host throttles cut
	// 40% of the desktops to ~1 new contact per 100 ticks
	// (Williamson-style).
	edge := spec.Defense{Kind: "edge", Rate: 0.2}
	hosts := spec.Defense{Kind: "host", Fraction: 0.4, Rate: 0.01}

	postures := []struct {
		name     string
		defenses []spec.Defense
	}{
		{"no defense", nil},
		{"edge routers only", []spec.Defense{edge}},
		{"40% host throttles only", []spec.Defense{hosts}},
		{"edge routers + 40% host throttles", []spec.Defense{edge, hosts}},
	}

	fmt.Println("Local-preferential worm in a 12-subnet enterprise (480 hosts)")
	fmt.Printf("%-36s %10s %10s %8s\n", "posture", "t(25%)", "t(50%)", "final")
	var t50 []float64
	for _, p := range postures {
		s := base
		s.Defenses = p.defenses
		c, err := s.Compile()
		if err != nil {
			log.Fatal(err)
		}
		res, _, err := c.Run(context.Background(), nil)
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
