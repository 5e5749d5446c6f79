package spec

import (
	"fmt"
	"math/rand"
)

// Fuzz samples a random valid scenario spec: a small topology, a
// compatible worm/defense combination, and optional quarantine,
// immunization, and fault sections. Every spec Fuzz returns passes
// Validate; the specfuzz CLI mode and the fuzz-smoke CI target run
// such samples under the engine's invariant audit, probing parameter
// corners no hand-written scenario covers. Sampling is deterministic
// in the rng, so a failing sample is reproducible from its seed.
func Fuzz(rng *rand.Rand) *Spec {
	s := &Spec{
		Format:  Format,
		Version: Version,
		Ticks:   30 + rng.Intn(31),
		Seed:    1 + rng.Int63n(1_000_000),
		// 1-3 initial infections; every fuzz topology has >= 20 nodes.
		InitialInfected: 1 + rng.Intn(3),
	}

	routed := true
	switch rng.Intn(4) {
	case 0:
		s.Topology = Topology{Kind: "star", Nodes: 20 + rng.Intn(61)}
		routed = false
	case 1:
		s.Topology = Topology{Kind: "powerlaw", Nodes: 50 + rng.Intn(101), Edges: 1 + rng.Intn(2)}
		s.TopologySeed = 1 + rng.Int63n(1000)
	case 2:
		s.Topology = Topology{
			Kind: "enterprise", Backbones: 1 + rng.Intn(2),
			EdgesPerBackbone: 2 + rng.Intn(2), HostsPerSubnet: 5 + rng.Intn(6),
		}
	case 3:
		s.Topology = Topology{
			Kind: "twolevel", ASes: 10 + rng.Intn(11), AttachM: 1,
			TransitFraction: 0.2 + 0.2*rng.Float64(), HostsPerStub: 3 + rng.Intn(6),
		}
		s.TopologySeed = 1 + rng.Int63n(1000)
	}

	beta := 0.1 + 0.05*float64(rng.Intn(19)) // 0.10 .. 1.00 in steps of .05
	switch k := rng.Intn(3); {
	case k == 1 && routed:
		s.Worm = Worm{Kind: "local", Beta: beta, LocalPref: 0.3 + 0.1*float64(rng.Intn(6))}
	case k == 2:
		s.Worm = Worm{Kind: "sequential", Beta: beta}
	default:
		s.Worm = Worm{Kind: "random", Beta: beta}
	}
	s.Worm.ScansPerTick = 1 + rng.Intn(4)
	s.Worm.ProbeFirst = rng.Intn(4) == 0

	// One compatible defense; occasionally stack scan-rate overrides on
	// top. Node IDs in overrides stay below 11, the smallest node count
	// any fuzz topology can produce (enterprise 1/2/5 = 11 nodes).
	defenses := []string{"none", "host", "overrides"}
	if routed {
		defenses = append(defenses, "edge", "backbone", "throttle")
	} else {
		defenses = append(defenses, "hub")
	}
	pick := defenses[rng.Intn(len(defenses))]
	// The seed's parity picks the node-level kind of an edge or backbone
	// placement. Both kinds take the same draws, so the random stream
	// and every sample's name (which keeps the placement) stay stable.
	kind := pick
	if s.Seed%2 == 0 {
		switch pick {
		case "edge":
			kind = "edge_router"
		case "backbone":
			kind = "backbone_cap"
		}
	}
	switch kind {
	case "none":
		s.Defenses = []Defense{{Kind: "none"}}
	case "host":
		s.Defenses = []Defense{{
			Kind: "host", Fraction: 0.2 + 0.2*float64(rng.Intn(4)),
			Rate: 0.05 * float64(rng.Intn(5)),
		}}
	case "overrides":
		s.Defenses = []Defense{{Kind: "overrides", Overrides: map[string]float64{
			fmt.Sprint(rng.Intn(11)): 0.05 * float64(rng.Intn(5)),
		}}}
	case "edge", "edge_router":
		s.Defenses = []Defense{{Kind: kind, Rate: 0.5 + 0.5*float64(rng.Intn(5))}}
	case "backbone":
		s.Defenses = []Defense{{
			Kind: "backbone", Rate: 0.4 + 0.4*float64(rng.Intn(5)),
			Weighted: rng.Intn(2) == 0,
		}}
	case "backbone_cap": // a cap of 1..10 from backbone's two draws
		s.Defenses = []Defense{{Kind: "backbone_cap", HubCap: 1 + rng.Intn(5) + 5*rng.Intn(2)}}
	case "throttle":
		s.Defenses = []Defense{{
			Kind: "throttle", WorkingSet: 1 + rng.Intn(4),
			Period: int64(1 + rng.Intn(4)), Hosts: 1 + rng.Intn(5),
		}}
	case "hub":
		s.Defenses = []Defense{{Kind: "hub", HubCap: 1 + rng.Intn(5)}}
	}
	if rng.Intn(4) == 0 && pick != "overrides" {
		s.Defenses = append(s.Defenses, Defense{Kind: "overrides", Overrides: map[string]float64{
			fmt.Sprint(rng.Intn(11)): 0.1,
		}})
	}

	if rng.Intn(2) == 0 {
		q := &Quarantine{Delay: rng.Intn(4)}
		if rng.Intn(2) == 0 {
			q.TriggerScansPerTick = 10 + rng.Intn(91)
		} else {
			q.TriggerLevel = 0.01 + 0.05*float64(rng.Intn(4))
		}
		s.Quarantine = q
	}
	if rng.Intn(3) == 0 {
		im := &Immunize{Mu: 0.01 + 0.03*float64(rng.Intn(4))}
		if rng.Intn(2) == 0 {
			im.StartTick = 5 + rng.Intn(16)
		} else {
			im.StartLevel = 0.05 + 0.05*float64(rng.Intn(5))
		}
		s.Immunize = im
	}
	if rng.Intn(5) == 0 {
		f := &Faults{Seed: 1 + rng.Int63n(1000)}
		switch rng.Intn(3) {
		case 0:
			f.FalseAlarmPerTick = 0.01 * float64(1+rng.Intn(5))
		case 1:
			f.MissRate = 0.1 * float64(1+rng.Intn(5))
		case 2:
			start := rng.Intn(20)
			f.LimiterOutages = []Window{{Start: start, End: start + 5 + rng.Intn(10)}}
		}
		s.Faults = f
	}

	switch rng.Intn(4) {
	case 0:
		s.MaxQueue = -1 // unbounded
	case 1:
		s.MaxQueue = 20 + rng.Intn(41)
	} // else 0: default
	s.Drop = rng.Intn(4) == 0
	if routed && rng.Intn(4) == 0 {
		s.HostsOnly = true
	}
	if rng.Intn(2) == 0 {
		s.Observe = &Observe{
			Infections: rng.Intn(2) == 0,
			Subnets:    routed && rng.Intn(2) == 0,
			Latency:    rng.Intn(2) == 0,
		}
	}
	s.Run = &Run{Runs: 1 + rng.Intn(2)}
	s.Name = fmt.Sprintf("fuzz-%s-%s-%s", s.Topology.Kind, s.Worm.Kind, pick)
	return s
}
