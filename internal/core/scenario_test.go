package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/worm"
)

// These tests drive core.Run end to end through the scenario
// vocabulary: a spec.Spec literal, compiled and run as one point.

// scenario returns a spec over topo and w with the given horizon and
// defense stack.
func scenario(topo spec.Topology, w spec.Worm, ticks int, defenses ...spec.Defense) *spec.Spec {
	return &spec.Spec{
		Format: spec.Format, Version: spec.Version,
		Topology: topo, Worm: w, Ticks: ticks, Defenses: defenses,
	}
}

var (
	random08 = spec.Worm{Kind: "random", Beta: 0.8}
	backbone = spec.Defense{Kind: "backbone", Rate: 0.4}
)

func star(n int) spec.Topology     { return spec.Topology{Kind: "star", Nodes: n} }
func powerLaw(n int) spec.Topology { return spec.Topology{Kind: "powerlaw", Nodes: n} }

// run compiles s and runs `runs` replicas of it under o.
func run(ctx context.Context, s *spec.Spec, runs int, o core.RunOptions) (*sim.Result, runner.Stats, error) {
	c, err := s.Compile(nil)
	if err != nil {
		return nil, runner.Stats{}, err
	}
	c.Runs, c.Options = runs, o
	return c.Run(ctx)
}

func TestScenarioRunStar(t *testing.T) {
	res, _, err := run(context.Background(), scenario(star(100), random08, 120), 3, core.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.95 {
		t.Errorf("open star should saturate: %v", res.FinalInfected())
	}
}

func TestScenarioHubDefense(t *testing.T) {
	open := scenario(star(100), random08, 250)
	capped := scenario(star(100), random08, 250, spec.Defense{Kind: "hub", HubCap: 2})
	ro, _, err := run(context.Background(), open, 3, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc, _, err := run(context.Background(), capped, 3, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !(rc.TimeToLevel(0.5) > 1.5*ro.TimeToLevel(0.5)) {
		t.Errorf("hub cap should slow the worm: %v vs %v",
			rc.TimeToLevel(0.5), ro.TimeToLevel(0.5))
	}
}

func TestScenarioPowerLawDefenses(t *testing.T) {
	w := spec.Worm{Kind: "random", Beta: 0.8, ScansPerTick: 10}
	open, _, err := run(context.Background(), scenario(powerLaw(300), w, 120), 2, core.RunOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	limited, _, err := run(context.Background(), scenario(powerLaw(300), w, 120, backbone), 2, core.RunOptions{})
	if err != nil {
		t.Fatalf("backbone: %v", err)
	}
	if !(limited.TimeToLevel(0.5) > open.TimeToLevel(0.5)) {
		t.Errorf("backbone RL should slow: %v vs %v",
			limited.TimeToLevel(0.5), open.TimeToLevel(0.5))
	}
	edge := scenario(powerLaw(300), w, 120, spec.Defense{Kind: "edge", Rate: 0.2})
	if _, _, err := run(context.Background(), edge, 2, core.RunOptions{}); err != nil {
		t.Fatalf("edge: %v", err)
	}
	host := scenario(powerLaw(300), w, 120, spec.Defense{Kind: "host", Fraction: 0.3, Rate: 0.01})
	if _, _, err := run(context.Background(), host, 2, core.RunOptions{}); err != nil {
		t.Fatalf("host: %v", err)
	}
}

func TestScenarioEnterprise(t *testing.T) {
	s := scenario(spec.Topology{Kind: "enterprise", Backbones: 2, EdgesPerBackbone: 3, HostsPerSubnet: 20},
		spec.Worm{Kind: "local", Beta: 0.8, LocalPref: 0.8}, 150)
	res, _, err := run(context.Background(), s, 3, core.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.9 {
		t.Errorf("open enterprise should saturate: %v", res.FinalInfected())
	}
}

func TestScenarioImmunization(t *testing.T) {
	s := scenario(powerLaw(300), random08, 200)
	s.Immunize = &spec.Immunize{StartLevel: 0.2, Mu: 0.1}
	res, _, err := run(context.Background(), s, 3, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalEverInfected() >= 1 {
		t.Errorf("immunization should save some hosts: %v", res.FinalEverInfected())
	}
	if res.FinalInfected() > 0.05 {
		t.Errorf("epidemic should die out: %v", res.FinalInfected())
	}
	// Fixed-tick trigger path.
	s.Immunize = &spec.Immunize{StartTick: 10, Mu: 0.1}
	if _, _, err := run(context.Background(), s, 2, core.RunOptions{}); err != nil {
		t.Fatalf("fixed-tick immunization: %v", err)
	}
}

func TestScenarioASInternet(t *testing.T) {
	s := scenario(spec.Topology{Kind: "twolevel", ASes: 40, AttachM: 1, TransitFraction: 0.1, HostsPerStub: 6},
		spec.Worm{Kind: "sequential", Beta: 0.8},
		500, // sequential scanning covers the space slowly
		spec.Defense{Kind: "none"})
	res, _, err := run(context.Background(), s, 3, core.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.9 {
		t.Errorf("open AS-internet should saturate, got %v", res.FinalInfected())
	}
	// The analytical mapping knows the expanded population size.
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	hm, ok := m.(model.Homogeneous)
	if !ok {
		t.Fatalf("model type %T", m)
	}
	if want := 40.0 + 36*6; hm.N != want {
		t.Errorf("model N = %v, want %v", hm.N, want)
	}
	// Backbone defense works on the two-level topology too.
	s.Defenses = []spec.Defense{backbone}
	if _, _, err := run(context.Background(), s, 2, core.RunOptions{}); err != nil {
		t.Fatalf("backbone on AS-internet: %v", err)
	}
}

func TestScenarioPowerLawM(t *testing.T) {
	s := scenario(spec.Topology{Kind: "powerlaw", Nodes: 200, Edges: 2}, random08, 60)
	res, _, err := run(context.Background(), s, 2, core.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.9 {
		t.Errorf("m=2 power law should saturate, got %v", res.FinalInfected())
	}
}

func TestScenarioModelErrors(t *testing.T) {
	if _, err := scenario(star(10), spec.Worm{}, 0).Model(); err == nil {
		t.Error("model without worm should fail")
	}
	if _, err := scenario(spec.Topology{}, spec.Worm{Kind: "random", Beta: 0.5}, 0).Model(); err == nil {
		t.Error("model without topology should fail")
	}
	// Enterprise population arithmetic.
	s := scenario(spec.Topology{Kind: "enterprise", Backbones: 2, EdgesPerBackbone: 3, HostsPerSubnet: 10},
		spec.Worm{Kind: "random", Beta: 0.5}, 0)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if hm := m.(model.Homogeneous); hm.N != 2+6+60 {
		t.Errorf("enterprise model N = %v, want 68", hm.N)
	}
}

func TestScenarioErrors(t *testing.T) {
	ctx := context.Background()
	if _, _, err := run(ctx, scenario(spec.Topology{}, random08, 0), 1, core.RunOptions{}); err == nil {
		t.Error("missing topology should fail")
	}
	if _, _, err := run(ctx, scenario(star(10), spec.Worm{}, 0), 1, core.RunOptions{}); err == nil {
		t.Error("missing worm should fail")
	}
	bad := scenario(star(10), spec.Worm{Kind: "local", Beta: 0.8, LocalPref: 2}, 0)
	if _, _, err := run(ctx, bad, 1, core.RunOptions{}); err == nil {
		t.Error("invalid worm spec should fail")
	}
	hubOnPL := scenario(powerLaw(50), spec.Worm{Kind: "random", Beta: 0.5}, 0, spec.Defense{Kind: "hub", HubCap: 2})
	if _, _, err := run(ctx, hubOnPL, 1, core.RunOptions{}); !errors.Is(err, spec.ErrUnsupported) {
		t.Errorf("hub cap on power-law should be unsupported, got %v", err)
	}
	edgeOnStar := scenario(star(10), spec.Worm{Kind: "random", Beta: 0.5}, 0, spec.Defense{Kind: "edge", Rate: 1})
	if _, _, err := run(ctx, edgeOnStar, 1, core.RunOptions{}); !errors.Is(err, spec.ErrUnsupported) {
		t.Errorf("edge RL on star should be unsupported, got %v", err)
	}
}

func TestScenarioDynamicQuarantine(t *testing.T) {
	s := scenario(powerLaw(400), spec.Worm{Kind: "random", Beta: 0.8, ScansPerTick: 10}, 200, backbone)
	s.Quarantine = &spec.Quarantine{TriggerScansPerTick: 40, Delay: 2}
	s.InitialInfected = 3
	res, _, err := run(context.Background(), s, 3, core.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.QuarantineTick <= 0 {
		t.Errorf("dynamic quarantine never engaged: tick %d", res.QuarantineTick)
	}
}

func TestScenarioModelMapping(t *testing.T) {
	s := scenario(star(200), random08, 0)
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if _, ok := m.(model.Homogeneous); !ok {
		t.Errorf("open scenario should map to Homogeneous, got %T", m)
	}
	s.Defenses = []spec.Defense{{Kind: "host", Fraction: 0.3, Rate: 0.01}}
	m, err = s.Model()
	if err != nil {
		t.Fatal(err)
	}
	hm, ok := m.(model.HostRL)
	if !ok || hm.Q != 0.3 {
		t.Errorf("host defense should map to HostRL{Q:0.3}, got %#v", m)
	}
	s.Defenses = []spec.Defense{{Kind: "hub", HubCap: 2}}
	if _, err := s.Model(); err != nil {
		t.Errorf("hub model: %v", err)
	}
	// Backbone RL on an unrouted star is unsupported, matching Run.
	s.Defenses = []spec.Defense{backbone}
	if _, err := s.Model(); !errors.Is(err, spec.ErrUnsupported) {
		t.Errorf("backbone model on star should be unsupported, got %v", err)
	}
	s.Defenses = []spec.Defense{{Kind: "edge", Rate: 0.4}}
	if _, err := s.Model(); !errors.Is(err, spec.ErrUnsupported) {
		t.Errorf("edge defense has no single closed form, got %v", err)
	}
}

// TestModelBackboneAlphaMeasured guards the Alpha bugfix: the analytic
// backbone model must carry the path coverage measured on the
// scenario's actual topology, not a hardcoded constant.
func TestModelBackboneAlphaMeasured(t *testing.T) {
	s := scenario(powerLaw(300), random08, 0, backbone)
	s.Seed = 4
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	bb, ok := m.(model.BackboneRL)
	if !ok {
		t.Fatalf("model type %T, want BackboneRL", m)
	}
	if bb.Alpha <= 0 || bb.Alpha > 1 {
		t.Fatalf("alpha = %v, want in (0,1]", bb.Alpha)
	}
	// Cross-check against a direct measurement on the same topology:
	// the powerlaw generator seeded with the spec seed.
	g, err := topology.BarabasiAlbert(300, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		t.Fatal(err)
	}
	want, err := routing.Build(g).PathCoverage(sim.DeployBackbone(roles))
	if err != nil {
		t.Fatal(err)
	}
	if bb.Alpha != want {
		t.Errorf("alpha = %v, want measured coverage %v", bb.Alpha, want)
	}
	// On the paper's power-law topology nearly all inter-host paths
	// transit the top-degree core.
	if bb.Alpha < 0.5 {
		t.Errorf("alpha = %v, expected the core to cover most paths", bb.Alpha)
	}
}

// Cross-validation: the simulated open epidemic should roughly track
// the analytical logistic in time-to-half (within a small factor; the
// sim adds per-hop latency the model lacks).
func TestScenarioSimVsModel(t *testing.T) {
	s := scenario(star(200), random08, 60)
	s.Seed = 5
	res, _, err := run(context.Background(), s, 5, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	simT50 := res.TimeToLevel(0.5)
	modelT50 := m.(model.Homogeneous).TimeToLevel(0.5)
	if math.IsNaN(simT50) {
		t.Fatal("sim never reached 50%")
	}
	ratio := simT50 / modelT50
	if ratio < 0.8 || ratio > 3 {
		t.Errorf("sim/model t50 ratio = %v (sim %v, model %v), want within ~2-hop latency",
			ratio, simT50, modelT50)
	}
}

func smallScenario() *spec.Spec {
	s := scenario(powerLaw(150), spec.Worm{Kind: "random", Beta: 0.8, ScansPerTick: 5}, 40, backbone)
	s.Seed = 9
	return s
}

// TestRunJobsInvariant: the averaged series is identical for the
// default options and for every job count.
func TestRunJobsInvariant(t *testing.T) {
	s := smallScenario()
	plain, _, err := run(context.Background(), s, 3, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		res, _, err := run(context.Background(), s, 3, core.RunOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(plain, res) {
			t.Fatalf("jobs=%d: result differs from the default options", jobs)
		}
	}
}

func TestRunProgress(t *testing.T) {
	s := smallScenario()
	var final runner.Stats
	_, stats, err := run(context.Background(), s, 4, core.RunOptions{
		Jobs:     2,
		Progress: func(st runner.Stats) { final = st },
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Completed != 4 || final.Runs != 4 {
		t.Errorf("final stats = %+v, want 4/4 completed", final)
	}
	if final.Ticks != int64(4*s.Ticks) {
		t.Errorf("ticks = %d, want %d", final.Ticks, 4*s.Ticks)
	}
	if stats.Completed != final.Completed || stats.Ticks != final.Ticks {
		t.Errorf("returned stats %+v disagree with the last progress report %+v", stats, final)
	}
}

func TestRunTimeout(t *testing.T) {
	s := smallScenario()
	s.Ticks = 100000 // far beyond anything a nanosecond budget allows
	_, _, err := run(context.Background(), s, 4, core.RunOptions{Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := run(ctx, smallScenario(), 2, core.RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestValidate: Compile validates the whole scenario without running
// it.
func TestValidate(t *testing.T) {
	validate := func(s *spec.Spec) error { _, err := s.Compile(nil); return err }
	if err := validate(smallScenario()); err != nil {
		t.Errorf("valid scenario: %v", err)
	}
	if err := validate(scenario(spec.Topology{}, random08, 0)); err == nil {
		t.Error("missing topology should fail validation")
	}
	if err := validate(scenario(star(10), spec.Worm{}, 0)); err == nil {
		t.Error("missing worm should fail validation")
	}
	bad := smallScenario()
	bad.Worm = spec.Worm{Kind: "local", Beta: 0.8, LocalPref: 2}
	if err := validate(bad); err == nil {
		t.Error("invalid worm spec should fail validation")
	}
	hubOnPL := smallScenario()
	hubOnPL.Defenses = []spec.Defense{{Kind: "hub", HubCap: 2}}
	if err := validate(hubOnPL); !errors.Is(err, spec.ErrUnsupported) {
		t.Errorf("hub cap on power-law should be unsupported, got %v", err)
	}
	neg := smallScenario()
	neg.InitialInfected = -1
	if err := validate(neg); err == nil {
		t.Error("negative initial infections should fail validation")
	}
}

// TestScenarioWarnings: the one advisory left is track-subnets on a
// star, which has no subnet partition.
func TestScenarioWarnings(t *testing.T) {
	if w := smallScenario().Warnings(); len(w) != 0 {
		t.Errorf("power-law scenario should not warn, got %v", w)
	}
	s := scenario(star(40), random08, 40, spec.Defense{Kind: "none"})
	if w := s.Warnings(); len(w) != 0 {
		t.Errorf("star without track-subnets should not warn, got %v", w)
	}
	s.Observe = &spec.Observe{Subnets: true}
	if w := s.Warnings(); len(w) != 1 || !strings.Contains(w[0], "track-subnets") {
		t.Errorf("track-subnets on a star should warn once, got %v", w)
	}
}

// TestRunKeepsConfigCollectors: core.Run installs RunOptions.Collectors
// only when it is set, so a CollectorFactory the caller put on the
// config itself (the collateral figure's counters) survives a run with
// no metrics sink.
func TestRunKeepsConfigCollectors(t *testing.T) {
	g, err := topology.Star(30)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	cfg := sim.Config{
		Graph: g, Beta: 0.8, Strategy: worm.NewRandomFactory(),
		InitialInfected: 1, Ticks: 20, Seed: 1,
		CollectorFactory: func(int) obs.Collector { calls++; return obs.NewTally() },
	}
	res, _, err := core.Run(context.Background(), cfg, 2, core.RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || res.Counters["scan_attempts"] == 0 {
		t.Errorf("config collectors dropped: %d factory calls, counters %v", calls, res.Counters)
	}
}
