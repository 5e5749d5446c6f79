package spec

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/safeio"
	"repro/internal/sim"
)

// The checked-in specs under testdata/golden mirror the engine's golden
// scenarios (internal/sim/testdata/golden_series.json) one-to-one: each
// spec must compile to the exact config its golden scenario hand-builds
// and reproduce its series byte-for-byte. Together with the fixture
// round-trip check this pins the whole declarative path — parse →
// compile → lower → run — to the engine's determinism contract.
// Regenerate the spec files intentionally with
//
//	go test ./internal/spec -run TestGoldenSpecs -update-specs
//
// a changed file means the spec format or its lowering changed, which
// needs an explicit justification in the PR.
var updateSpecs = flag.Bool("update-specs", false, "rewrite the golden spec fixtures")

const goldenDir = "testdata/golden"

// goldenSpecs are the authoritative in-Go definitions the fixture files
// are generated from. Every field mirrors the corresponding config in
// sim's goldenScenarios.
func goldenSpecs() map[string]*Spec {
	return map[string]*Spec{
		"star-open": {
			Format: Format, Version: Version, Name: "star-open",
			Topology: Topology{Kind: "star", Nodes: 60},
			Worm:     Worm{Kind: "random", Beta: 0.8, ScansPerTick: 2},
			Ticks:    80, Seed: 7, MaxQueue: -1,
			Observe: &Observe{Infections: true, Latency: true},
		},
		"star-hub-capped": {
			Format: Format, Version: Version, Name: "star-hub-capped",
			Topology:   Topology{Kind: "star", Nodes: 60},
			Worm:       Worm{Kind: "random", Beta: 0.8, ScansPerTick: 4},
			Defenses:   []Defense{{Kind: "hub", HubCap: 3}},
			Quarantine: &Quarantine{TriggerLevel: 0.05, Delay: 2},
			Ticks:      120, Seed: 11, InitialInfected: 2, MaxQueue: 40,
		},
		"powerlaw-backbone-limited": {
			Format: Format, Version: Version, Name: "powerlaw-backbone-limited",
			Topology: Topology{Kind: "powerlaw", Nodes: 200, Edges: 1},
			Worm:     Worm{Kind: "random", Beta: 0.8, ScansPerTick: 6},
			Defenses: []Defense{{Kind: "backbone", Rate: 0.4, Weighted: true}},
			Ticks:    120, Seed: 17, TopologySeed: 4, InitialInfected: 3,
			Observe: &Observe{Subnets: true},
		},
		"powerlaw-drop-immunize": {
			Format: Format, Version: Version, Name: "powerlaw-drop-immunize",
			Topology: Topology{Kind: "powerlaw", Nodes: 200, Edges: 1},
			Worm:     Worm{Kind: "random", Beta: 0.6, ScansPerTick: 4},
			Defenses: []Defense{{Kind: "backbone", Rate: 1.5}},
			Immunize: &Immunize{StartLevel: 0.1, Mu: 0.05},
			Ticks:    100, Seed: 23, TopologySeed: 4, InitialInfected: 2,
			MaxQueue: -1, Drop: true,
		},
		"twolevel-edge-probe": {
			Format: Format, Version: Version, Name: "twolevel-edge-probe",
			Topology: Topology{
				Kind: "enterprise", Backbones: 2, EdgesPerBackbone: 4, HostsPerSubnet: 12,
			},
			Worm:       Worm{Kind: "local", Beta: 0.8, ScansPerTick: 3, ProbeFirst: true, LocalPref: 0.7},
			Defenses:   []Defense{{Kind: "edge", Rate: 2}},
			Quarantine: &Quarantine{TriggerScansPerTick: 40, Delay: 5},
			Ticks:      150, Seed: 31, InitialInfected: 2, HostsOnly: true,
			Observe: &Observe{Subnets: true, Latency: true},
		},
		"twolevel-host-throttle": {
			Format: Format, Version: Version, Name: "twolevel-host-throttle",
			Topology: Topology{
				Kind: "enterprise", Backbones: 2, EdgesPerBackbone: 4, HostsPerSubnet: 12,
			},
			Worm: Worm{Kind: "random", Beta: 0.9, ScansPerTick: 5},
			Defenses: []Defense{
				{Kind: "overrides", Overrides: map[string]float64{"10": 0.2, "20": 0.1, "30": 0.05}},
				{Kind: "throttle", WorkingSet: 3, Period: 1, Hosts: 40},
			},
			Quarantine: &Quarantine{TriggerLevel: 0.02},
			Ticks:      120, Seed: 41, InitialInfected: 2, MaxQueue: -1,
		},
	}
}

// goldenSeries matches the fixture schema of internal/sim/golden_test.go.
type goldenSeries struct {
	Infected       []float64 `json:"infected"`
	EverInfected   []float64 `json:"ever_infected"`
	Immunized      []float64 `json:"immunized"`
	Backlog        []int     `json:"backlog"`
	WithinSubnet   []float64 `json:"within_subnet,omitempty"`
	MeanLatency    []float64 `json:"mean_latency,omitempty"`
	QuarantineTick int       `json:"quarantine_tick"`
	Infections     int       `json:"infections"`
}

func toGolden(r *sim.Result) goldenSeries {
	return goldenSeries{
		Infected:       r.Infected,
		EverInfected:   r.EverInfected,
		Immunized:      r.Immunized,
		Backlog:        r.Backlog,
		WithinSubnet:   r.WithinSubnet,
		MeanLatency:    r.MeanLatency,
		QuarantineTick: r.QuarantineTick,
		Infections:     len(r.Infections),
	}
}

func TestGoldenSpecs(t *testing.T) {
	specs := goldenSpecs()

	if *updateSpecs {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range specs {
			buf, err := s.Canonical()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := safeio.WriteFile(filepath.Join(goldenDir, name+".json"), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d spec fixtures in %s", len(specs), goldenDir)
		return
	}

	seriesBuf, err := os.ReadFile("../sim/testdata/golden_series.json")
	if err != nil {
		t.Fatalf("read golden series: %v", err)
	}
	var want map[string]goldenSeries
	if err := json.Unmarshal(seriesBuf, &want); err != nil {
		t.Fatal(err)
	}

	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(goldenDir, name+".json")
			fileBuf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture (regenerate with -update-specs): %v", err)
			}

			// The checked-in file IS the canonical form of the in-Go
			// definition, and it round-trips byte-identically.
			canon, err := s.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if string(fileBuf) != string(canon) {
				t.Errorf("%s diverged from its definition (regenerate with -update-specs)", path)
			}
			parsed, err := Parse(fileBuf)
			if err != nil {
				t.Fatal(err)
			}
			reCanon, err := parsed.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if string(reCanon) != string(fileBuf) {
				t.Errorf("%s did not round-trip byte-identically", path)
			}

			// The spec compiles and reproduces the engine's golden series
			// exactly: one run through the batch path equals Engine.Run.
			c, err := parsed.Compile(nil)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[name]
			if !ok {
				t.Fatalf("no golden series named %s", name)
			}
			if got := toGolden(res); !reflect.DeepEqual(got, w) {
				t.Errorf("spec-built run diverged from the golden series")
			}
		})
	}

	// Every fixture file corresponds to a defined spec — no strays.
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if _, ok := specs[name[:len(name)-len(".json")]]; !ok {
			t.Errorf("stray fixture %s has no spec definition", name)
		}
	}
}
