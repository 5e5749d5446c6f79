package sim

import (
	"context"
	"testing"
)

func TestProbeFirstStillSaturates(t *testing.T) {
	cfg := baseConfig(t, 100)
	cfg.ProbeFirst = true
	cfg.Ticks = 120
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if got := res.FinalInfected(); got < 0.99 {
		t.Errorf("probe-first epidemic should still saturate, got %v", got)
	}
}

func TestProbeFirstSlowerThanDirect(t *testing.T) {
	cfg := baseConfig(t, 150)
	cfg.Ticks = 100
	direct, _, err := MultiRun(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProbeFirst = true
	probed, _, err := MultiRun(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	tDirect := direct.TimeToLevel(0.5)
	tProbed := probed.TimeToLevel(0.5)
	// Three one-way trips instead of one: expect a clear but bounded
	// latency penalty.
	if !(tProbed > tDirect) {
		t.Errorf("probe-first %v should be slower than direct %v", tProbed, tDirect)
	}
	if tProbed > 5*tDirect {
		t.Errorf("probe-first %v implausibly slow vs %v", tProbed, tDirect)
	}
}

func TestProbeFirstMoreVulnerableToRateLimiting(t *testing.T) {
	cfg := baseConfig(t, 150)
	cfg.Ticks = 250
	cfg.ScansPerTick = 10
	cfg.MaxQueue = 50
	cfg.BaseRate = 0.4
	cfg.LimitedNodes = DeployBackbone(cfg.Roles)

	direct, _, err := MultiRun(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProbeFirst = true
	probed, _, err := MultiRun(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Probe, reply, and exploit all cross the limited backbone: the
	// probe-first worm suffers at least as much from rate limiting.
	if probed.TimeToLevel(0.5) < direct.TimeToLevel(0.5) {
		t.Errorf("probe-first under RL (%v) should not beat direct (%v)",
			probed.TimeToLevel(0.5), direct.TimeToLevel(0.5))
	}
}

func TestProbeFirstGenealogyAttribution(t *testing.T) {
	cfg := baseConfig(t, 80)
	cfg.ProbeFirst = true
	cfg.RecordInfections = true
	cfg.Ticks = 120
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	nonSeed := 0
	for _, inf := range res.Infections {
		if inf.Source >= 0 {
			nonSeed++
			if inf.Source == inf.Victim {
				t.Fatalf("self-infection recorded: %+v", inf)
			}
		}
	}
	if nonSeed == 0 {
		t.Error("probe-first infections should still carry source attribution")
	}
}
