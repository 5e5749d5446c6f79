package core_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/trace"
)

// replayTestScenario is an enterprise topology with Williamson
// throttles on its hosts — the deployment the collateral-damage
// measurement targets.
func replayTestScenario() *spec.Spec {
	s := scenario(spec.Topology{Kind: "enterprise", Backbones: 1, EdgesPerBackbone: 2, HostsPerSubnet: 12},
		random08, 60, spec.Defense{Kind: "throttle", WorkingSet: 4, Period: 1, Hosts: 20})
	s.Seed = 5
	return s
}

// TestRunSyntheticWorkload runs a whole batch over the synthetic
// replay workload and checks the collateral counters flow through the
// collector seam.
func TestRunSyntheticWorkload(t *testing.T) {
	s := replayTestScenario()
	s.Workload = &spec.Workload{
		Kind: "synthetic", Normal: 12, Servers: 2, P2P: 3, Infected: 3,
		BlasterFraction: 0.5,
	}
	tally := obs.NewTally()
	res, _, err := run(context.Background(), s, 1, core.RunOptions{
		Check:      true,
		Collectors: func(int) obs.Collector { return tally },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infected) != 60 {
		t.Fatalf("got %d ticks", len(res.Infected))
	}
	sum := tally.Summary()
	if sum.BenignContacts == 0 || sum.ScanAttempts == 0 {
		t.Fatalf("dead workload: %d benign, %d scans", sum.BenignContacts, sum.ScanAttempts)
	}
	if res.Infected[0] == 0 {
		t.Error("workload worm hosts were not seeded")
	}
}

// TestRunTraceFileWorkload: generate a trace, replay it from
// disk, and check the trace's worm hosts replace random seeding.
func TestRunTraceFileWorkload(t *testing.T) {
	gen := trace.GenConfig{
		Duration: 60 * trace.Second, Seed: 42,
		NormalClients: 12, Servers: 2, P2PClients: 3, Infected: 3,
		BlasterFraction: 0.5,
	}
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := replayTestScenario()
	s.Workload = &spec.Workload{Kind: "trace", Path: path}
	tally := obs.NewTally()
	res, _, err := run(context.Background(), s, 1, core.RunOptions{
		Check:      true,
		Collectors: func(int) obs.Collector { return tally },
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := tally.Summary()
	if sum.BenignContacts == 0 {
		t.Error("file replay saw no benign contacts")
	}
	if sum.ScanAttempts == 0 {
		t.Error("file replay saw no worm scans; worm-host detection failed")
	}
	if res.Infected[0] == 0 {
		t.Error("trace worm hosts were not seeded")
	}
}
