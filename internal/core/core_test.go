package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestScenarioRunStar(t *testing.T) {
	sc := Scenario{
		Topology: Star(100),
		Worm:     RandomWorm(0.8),
		Ticks:    120,
	}
	res, _, err := sc.Run(context.Background(), 3, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.95 {
		t.Errorf("open star should saturate: %v", res.FinalInfected())
	}
}

func TestScenarioHubDefense(t *testing.T) {
	open := Scenario{Topology: Star(100), Worm: RandomWorm(0.8), Ticks: 250}
	capped := open
	capped.Defense = HubCap(2)
	ro, _, err := open.Run(context.Background(), 3, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc, _, err := capped.Run(context.Background(), 3, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !(rc.TimeToLevel(0.5) > 1.5*ro.TimeToLevel(0.5)) {
		t.Errorf("hub cap should slow the worm: %v vs %v",
			rc.TimeToLevel(0.5), ro.TimeToLevel(0.5))
	}
}

func TestScenarioPowerLawDefenses(t *testing.T) {
	base := Scenario{
		Topology: PowerLaw(300),
		Worm: func() WormSpec {
			w := RandomWorm(0.8)
			w.ScansPerTick = 10
			return w
		}(),
		Ticks: 120,
	}
	open, _, err := base.Run(context.Background(), 2, RunOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	bb := base
	bb.Defense = BackboneRateLimit(0.4)
	limited, _, err := bb.Run(context.Background(), 2, RunOptions{})
	if err != nil {
		t.Fatalf("backbone: %v", err)
	}
	if !(limited.TimeToLevel(0.5) > open.TimeToLevel(0.5)) {
		t.Errorf("backbone RL should slow: %v vs %v",
			limited.TimeToLevel(0.5), open.TimeToLevel(0.5))
	}
	edge := base
	edge.Defense = EdgeRateLimit(0.2)
	if _, _, err := edge.Run(context.Background(), 2, RunOptions{}); err != nil {
		t.Fatalf("edge: %v", err)
	}
	host := base
	host.Defense = HostRateLimit(0.3, 0.01)
	if _, _, err := host.Run(context.Background(), 2, RunOptions{}); err != nil {
		t.Fatalf("host: %v", err)
	}
}

func TestScenarioEnterprise(t *testing.T) {
	sc := Scenario{
		Topology: Enterprise(topology.HierarchicalConfig{
			Backbones: 2, EdgesPer: 3, HostsPerSubnet: 20,
		}),
		Worm:  LocalPreferentialWorm(0.8, 0.8),
		Ticks: 150,
	}
	res, _, err := sc.Run(context.Background(), 3, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.9 {
		t.Errorf("open enterprise should saturate: %v", res.FinalInfected())
	}
}

func TestScenarioImmunization(t *testing.T) {
	sc := Scenario{
		Topology: PowerLaw(300),
		Worm:     RandomWorm(0.8),
		Immunize: &ImmunizationSpec{StartLevel: 0.2, Mu: 0.1},
		Ticks:    200,
	}
	res, _, err := sc.Run(context.Background(), 3, RunOptions{})
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
	sc.Immunize = &ImmunizationSpec{StartTick: 10, Mu: 0.1}
	if _, _, err := sc.Run(context.Background(), 2, RunOptions{}); err != nil {
		t.Fatalf("fixed-tick immunization: %v", err)
	}
}

func TestScenarioASInternet(t *testing.T) {
	sc := Scenario{
		Topology: ASInternet(topology.TwoLevelConfig{
			ASes: 40, AttachM: 1, TransitFraction: 0.1, HostsPerStub: 6,
		}),
		Worm:    SequentialWorm(0.8),
		Defense: NoDefense(),
		Ticks:   500, // sequential scanning covers the space slowly
	}
	res, _, err := sc.Run(context.Background(), 3, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.9 {
		t.Errorf("open AS-internet should saturate, got %v", res.FinalInfected())
	}
	// The analytical mapping knows the expanded population size.
	m, err := sc.Model()
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
	sc.Defense = BackboneRateLimit(0.4)
	if _, _, err := sc.Run(context.Background(), 2, RunOptions{}); err != nil {
		t.Fatalf("backbone on AS-internet: %v", err)
	}
}

func TestScenarioPowerLawM(t *testing.T) {
	sc := Scenario{Topology: PowerLawM(200, 2), Worm: RandomWorm(0.8), Ticks: 60}
	res, _, err := sc.Run(context.Background(), 2, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FinalInfected() < 0.9 {
		t.Errorf("m=2 power law should saturate, got %v", res.FinalInfected())
	}
}

func TestScenarioModelErrors(t *testing.T) {
	// Model without a worm.
	sc := Scenario{Topology: Star(10)}
	if _, err := sc.Model(); err == nil {
		t.Error("model without worm should fail")
	}
	// Model without a topology.
	sc = Scenario{Worm: RandomWorm(0.5)}
	if _, err := sc.Model(); err == nil {
		t.Error("model without topology should fail")
	}
	// Enterprise population arithmetic.
	sc = Scenario{
		Topology: Enterprise(topology.HierarchicalConfig{
			Backbones: 2, EdgesPer: 3, HostsPerSubnet: 10,
		}),
		Worm: RandomWorm(0.5),
	}
	m, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	if hm := m.(model.Homogeneous); hm.N != 2+6+60 {
		t.Errorf("enterprise model N = %v, want 68", hm.N)
	}
}

func TestScenarioErrors(t *testing.T) {
	if _, _, err := (&Scenario{Worm: RandomWorm(0.8)}).Run(context.Background(), 1, RunOptions{}); err == nil {
		t.Error("missing topology should fail")
	}
	if _, _, err := (&Scenario{Topology: Star(10)}).Run(context.Background(), 1, RunOptions{}); err == nil {
		t.Error("missing worm should fail")
	}
	bad := Scenario{Topology: Star(10), Worm: LocalPreferentialWorm(0.8, 2)}
	if _, _, err := bad.Run(context.Background(), 1, RunOptions{}); err == nil {
		t.Error("invalid worm spec should fail")
	}
	hubOnPL := Scenario{Topology: PowerLaw(50), Worm: RandomWorm(0.5), Defense: HubCap(2)}
	if _, _, err := hubOnPL.Run(context.Background(), 1, RunOptions{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("hub cap on power-law should be unsupported, got %v", err)
	}
	edgeOnStar := Scenario{Topology: Star(10), Worm: RandomWorm(0.5), Defense: EdgeRateLimit(1)}
	if _, _, err := edgeOnStar.Run(context.Background(), 1, RunOptions{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("edge RL on star should be unsupported, got %v", err)
	}
}

func TestScenarioDynamicQuarantine(t *testing.T) {
	worm10 := RandomWorm(0.8)
	worm10.ScansPerTick = 10
	sc := Scenario{
		Topology:          PowerLaw(400),
		Worm:              worm10,
		Defense:           BackboneRateLimit(0.4),
		DynamicQuarantine: &QuarantineSpec{TriggerScansPerTick: 40, Delay: 2},
		Ticks:             200,
		InitialInfected:   3,
	}
	res, _, err := sc.Run(context.Background(), 3, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.QuarantineTick <= 0 {
		t.Errorf("dynamic quarantine never engaged: tick %d", res.QuarantineTick)
	}
}

func TestScenarioModelMapping(t *testing.T) {
	sc := Scenario{Topology: Star(200), Worm: RandomWorm(0.8)}
	m, err := sc.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if _, ok := m.(model.Homogeneous); !ok {
		t.Errorf("open scenario should map to Homogeneous, got %T", m)
	}
	sc.Defense = HostRateLimit(0.3, 0.01)
	m, err = sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	hm, ok := m.(model.HostRL)
	if !ok || hm.Q != 0.3 {
		t.Errorf("host defense should map to HostRL{Q:0.3}, got %#v", m)
	}
	sc.Defense = HubCap(2)
	if _, err := sc.Model(); err != nil {
		t.Errorf("hub model: %v", err)
	}
	// Backbone RL on an unrouted star is unsupported, matching Run.
	sc.Defense = BackboneRateLimit(0.4)
	if _, err := sc.Model(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("backbone model on star should be unsupported, got %v", err)
	}
	sc.Defense = EdgeRateLimit(0.4)
	if _, err := sc.Model(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("edge defense has no single closed form, got %v", err)
	}
}

// TestModelBackboneAlphaMeasured guards the Alpha bugfix: the analytic
// backbone model must carry the path coverage measured on the
// scenario's actual topology, not a hardcoded constant.
func TestModelBackboneAlphaMeasured(t *testing.T) {
	sc := Scenario{
		Topology: PowerLaw(300),
		Worm:     RandomWorm(0.8),
		Defense:  BackboneRateLimit(0.4),
		Seed:     4,
	}
	m, err := sc.Model()
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
	// Cross-check against a direct measurement on the same topology.
	g, roles, _, err := sc.materialize()
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
	sc := Scenario{Topology: Star(200), Worm: RandomWorm(0.8), Ticks: 60, Seed: 5}
	res, _, err := sc.Run(context.Background(), 5, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sc.Model()
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
