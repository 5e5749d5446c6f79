package sim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/worm"
)

func TestQuarantineValidation(t *testing.T) {
	cfg := baseConfig(t, 60)
	cfg.Quarantine = &Quarantine{}
	if err := cfg.Validate(); err == nil {
		t.Error("quarantine without trigger should fail")
	}
	cfg.Quarantine = &Quarantine{TriggerLevel: 2}
	if err := cfg.Validate(); err == nil {
		t.Error("trigger level > 1 should fail")
	}
	cfg.Quarantine = &Quarantine{TriggerLevel: 0.1, Delay: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative delay should fail")
	}
	cfg.Quarantine = &Quarantine{TriggerScansPerTick: 10, Delay: 2}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid quarantine rejected: %v", err)
	}
}

func TestQuarantineActivates(t *testing.T) {
	// A core-concentrated (m=1) topology where backbone limits bite.
	g, err := topology.BarabasiAlbert(500, 1, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Roles: roles, Beta: 0.8,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 3, Seed: 1,
		Ticks: 250, ScansPerTick: 10, MaxQueue: 50,
		LimitedNodes: DeployBackbone(roles), BaseRate: 0.4,
	}

	alwaysOn, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if alwaysOn.QuarantineTick != 0 {
		t.Errorf("always-on deployment tick = %d, want 0", alwaysOn.QuarantineTick)
	}

	// Dynamic: same limits, activated when the scan detector fires.
	dyn := cfg
	dyn.Quarantine = &Quarantine{TriggerScansPerTick: 50, Delay: 2}
	dynamic, _, err := MultiRun(context.Background(), dyn, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.QuarantineTick <= 0 {
		t.Fatalf("dynamic quarantine never activated: tick %d", dynamic.QuarantineTick)
	}

	// No defense at all.
	open := cfg
	open.LimitedNodes = nil
	openRes, _, err := MultiRun(context.Background(), open, 3)
	if err != nil {
		t.Fatal(err)
	}

	tOpen := openRes.TimeToLevel(0.5)
	tDyn := dynamic.TimeToLevel(0.5)
	tAlways := alwaysOn.TimeToLevel(0.5)
	// Dynamic quarantine sits between no defense and always-on: the worm
	// runs free until detection, then faces the same limits.
	if !(tDyn > tOpen) {
		t.Errorf("dynamic quarantine should slow the worm: %v vs open %v", tDyn, tOpen)
	}
	if tDyn > tAlways+1 {
		t.Errorf("dynamic %v should not exceed always-on %v (same limits, later start)",
			tDyn, tAlways)
	}
}

func TestQuarantineLevelTriggerAndNeverFires(t *testing.T) {
	cfg := baseConfig(t, 100)
	cfg.Ticks = 80
	cfg.LimitedNodes = DeployBackbone(cfg.Roles)
	cfg.BaseRate = 0.4
	cfg.Quarantine = &Quarantine{TriggerLevel: 0.3}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.QuarantineTick <= 0 {
		t.Errorf("level trigger never fired: %d", res.QuarantineTick)
	}
	// An unreachable scan threshold never activates.
	cfg.Quarantine = &Quarantine{TriggerScansPerTick: 1 << 30}
	eng, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res = eng.Run()
	if res.QuarantineTick != -1 {
		t.Errorf("unreachable trigger activated at %d", res.QuarantineTick)
	}
}
