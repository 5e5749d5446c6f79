package core_test

import (
	"context"
	"flag"
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

func TestWorkloadFlagBinding(t *testing.T) {
	var o core.RunOptions
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	core.BindRunFlags(fs, &o)
	if err := fs.Parse([]string{"-trace-replay", "synthetic", "-trace-tick-ms", "500"}); err != nil {
		t.Fatal(err)
	}
	if o.Workload == nil || o.Workload.Kind != core.WorkloadSynthetic || o.Workload.TickMS != 500 {
		t.Fatalf("flags parsed to %+v", o.Workload)
	}

	var o2 core.RunOptions
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	core.BindRunFlags(fs2, &o2)
	if err := fs2.Parse([]string{"-trace-replay", "trace.log"}); err != nil {
		t.Fatal(err)
	}
	if o2.Workload == nil || o2.Workload.Kind != core.WorkloadTrace || o2.Workload.Path != "trace.log" {
		t.Fatalf("flags parsed to %+v", o2.Workload)
	}
}

// TestMergeRunFlagsWorkload: a spec-supplied workload keeps its
// profile when the command line overrides only the tick mapping, and
// the merge never mutates the base spec in place.
func TestMergeRunFlagsWorkload(t *testing.T) {
	base := core.RunOptions{Workload: &core.WorkloadSpec{
		Kind: core.WorkloadSynthetic, Infected: 3, Normal: 10, TickMS: 1000,
	}}
	var cli core.RunOptions
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	core.BindRunFlags(fs, &cli)
	if err := fs.Parse([]string{"-trace-tick-ms", "250"}); err != nil {
		t.Fatal(err)
	}
	out := core.MergeRunFlags(fs, base)
	if out.Workload.TickMS != 250 {
		t.Errorf("merged TickMS = %d, want 250", out.Workload.TickMS)
	}
	if out.Workload.Infected != 3 || out.Workload.Normal != 10 {
		t.Errorf("merge dropped the spec profile: %+v", out.Workload)
	}
	if base.Workload.TickMS != 1000 {
		t.Errorf("merge mutated the base workload: TickMS = %d", base.Workload.TickMS)
	}
}

func TestWorkloadSpecValidate(t *testing.T) {
	bad := []core.WorkloadSpec{
		{},
		{Kind: "replay"},
		{Kind: core.WorkloadTrace},
		{Kind: core.WorkloadSynthetic, Path: "x"},
		{Kind: core.WorkloadSynthetic, TickMS: -1},
		{Kind: core.WorkloadSynthetic, BlasterFraction: 1.5},
		{Kind: core.WorkloadSynthetic, Infected: -1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, w)
		}
	}
	ok := core.WorkloadSpec{Kind: core.WorkloadSynthetic, TickMS: 500, Infected: 2, Normal: 8}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestRunSyntheticWorkload runs a whole batch over the synthetic
// replay workload and checks the collateral counters flow through the
// collector seam.
func TestRunSyntheticWorkload(t *testing.T) {
	tally := obs.NewTally()
	res, _, err := run(context.Background(), replayTestScenario(), 1, core.RunOptions{
		Check:      true,
		Collectors: func(int) obs.Collector { return tally },
		Workload: &core.WorkloadSpec{
			Kind: core.WorkloadSynthetic, Normal: 12, Servers: 2, P2P: 3, Infected: 3,
			BlasterFraction: 0.5,
		},
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

	tally := obs.NewTally()
	res, _, err := run(context.Background(), replayTestScenario(), 1, core.RunOptions{
		Check:      true,
		Collectors: func(int) obs.Collector { return tally },
		Workload:   &core.WorkloadSpec{Kind: core.WorkloadTrace, Path: path},
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
