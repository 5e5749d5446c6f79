package sim

import (
	"context"
	"testing"

	"repro/internal/ratelimit"
	"repro/internal/topology"
	"repro/internal/worm"
)

func TestInfectionGenealogy(t *testing.T) {
	cfg := baseConfig(t, 80)
	cfg.RecordInfections = true
	cfg.InitialInfected = 2
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if len(res.Infections) == 0 {
		t.Fatal("no infections recorded")
	}
	seeds := 0
	seen := make(map[int]bool)
	for _, inf := range res.Infections {
		if seen[int(inf.Victim)] {
			t.Fatalf("victim %d infected twice", inf.Victim)
		}
		seen[int(inf.Victim)] = true
		if inf.Source < 0 {
			seeds++
			if inf.Tick != -1 {
				t.Errorf("seed infection at tick %d, want -1", inf.Tick)
			}
			continue
		}
		// Sources must have been infected before their victims.
		if !seen[int(inf.Source)] {
			t.Fatalf("victim %d infected by not-yet-infected %d", inf.Victim, inf.Source)
		}
	}
	if seeds != 2 {
		t.Errorf("seeds = %d, want 2", seeds)
	}
	// Genealogy count matches the ever-infected total.
	wantEver := int(res.FinalEverInfected() * float64(cfg.Graph.N()))
	if len(res.Infections) != wantEver {
		t.Errorf("genealogy entries %d != ever infected %d", len(res.Infections), wantEver)
	}
	depths := res.InfectionDepths()
	if len(depths) != len(res.Infections) {
		t.Fatalf("depths %d != infections %d", len(depths), len(res.Infections))
	}
	maxDepth := 0
	for _, inf := range res.Infections {
		d := depths[int(inf.Victim)]
		if inf.Source < 0 && d != 0 {
			t.Errorf("seed depth = %d", d)
		}
		if inf.Source >= 0 && d != depths[int(inf.Source)]+1 {
			t.Errorf("depth chain broken at %d", inf.Victim)
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth < 2 {
		t.Errorf("max depth %d too shallow for a full epidemic", maxDepth)
	}
}

func TestInfectionDepthsWithoutRecording(t *testing.T) {
	r := &Result{}
	if r.InfectionDepths() != nil {
		t.Error("no genealogy should give nil depths")
	}
}

func TestTrackSubnets(t *testing.T) {
	g, roles, subnet, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones: 2, EdgesPer: 3, HostsPerSubnet: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := worm.NewLocalPreferentialFactory(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Roles: roles, Subnet: subnet,
		Beta: 0.8, Strategy: lp, InitialInfected: 1,
		Ticks: 120, Seed: 3, TrackSubnets: true,
	}
	res, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WithinSubnet) != cfg.Ticks {
		t.Fatalf("within-subnet series length %d", len(res.WithinSubnet))
	}
	for i, v := range res.WithinSubnet {
		if v < 0 || v > 1 {
			t.Fatalf("within-subnet[%d] = %v out of range", i, v)
		}
	}
	// A local-preferential worm saturates its subnets faster than the
	// overall population: mid-epidemic the within-subnet fraction should
	// exceed the overall infected fraction.
	mid := -1
	for i, v := range res.Infected {
		if v > 0.2 && v < 0.7 {
			mid = i
			break
		}
	}
	if mid >= 0 && res.WithinSubnet[mid] <= res.Infected[mid] {
		t.Errorf("within-subnet %v should lead overall %v mid-epidemic",
			res.WithinSubnet[mid], res.Infected[mid])
	}
}

func TestHostLimiterIntegration(t *testing.T) {
	cfg := baseConfig(t, 120)
	cfg.Ticks = 80
	// Throttle every node with a Williamson-style unique-IP window: one
	// new destination per 5-tick window.
	nodes := make([]int, cfg.Graph.N())
	for i := range nodes {
		nodes[i] = i
	}
	open, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HostLimiterNodes = nodes
	cfg.HostLimiterFactory = func() ratelimit.ContactLimiter {
		l, err := ratelimit.NewUniqueIPWindow(1, 5)
		if err != nil {
			panic(err) // impossible with constant arguments
		}
		return l
	}
	throttled, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	tOpen := open.TimeToLevel(0.5)
	tThrottled := throttled.TimeToLevel(0.5)
	if !(tThrottled > 1.5*tOpen) {
		t.Errorf("universal throttling should slow >1.5x: %v vs %v", tThrottled, tOpen)
	}
}

func TestHostLimiterValidation(t *testing.T) {
	cfg := baseConfig(t, 50)
	cfg.HostLimiterNodes = []int{1}
	if err := cfg.Validate(); err == nil {
		t.Error("limiter nodes without factory should fail")
	}
	cfg.HostLimiterFactory = func() ratelimit.ContactLimiter {
		l, _ := ratelimit.NewUniqueIPWindow(1, 5)
		return l
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid limiter config rejected: %v", err)
	}
	cfg.HostLimiterNodes = []int{-1}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range limiter node should fail")
	}
}

func TestSusceptibleOnlyPatching(t *testing.T) {
	cfg := baseConfig(t, 150)
	cfg.Ticks = 200
	cfg.Immunize = &Immunization{StartTick: -1, StartLevel: 0.2, Mu: 0.1}
	both, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Immunize = &Immunization{StartTick: -1, StartLevel: 0.2, Mu: 0.1, SusceptibleOnly: true}
	susOnly, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Leaving infected hosts scanning infects more of the population.
	if !(susOnly.FinalEverInfected() > both.FinalEverInfected()) {
		t.Errorf("susceptible-only %v should infect more than patch-all %v",
			susOnly.FinalEverInfected(), both.FinalEverInfected())
	}
	// And the epidemic never dies out (infected stay infected).
	if susOnly.FinalInfected() == 0 {
		t.Error("susceptible-only patching cannot extinguish the infection")
	}
}
