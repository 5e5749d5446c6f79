package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func smallScenario() Scenario {
	w := RandomWorm(0.8)
	w.ScansPerTick = 5
	return Scenario{
		Topology: PowerLaw(150),
		Worm:     w,
		Defense:  BackboneRateLimit(0.4),
		Ticks:    40,
		Seed:     9,
	}
}

func TestSimulateContextMatchesSimulate(t *testing.T) {
	sc := smallScenario()
	plain, err := sc.Simulate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		ctxRes, err := sc.SimulateContext(context.Background(), 3, WithJobs(jobs))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(plain, ctxRes) {
			t.Fatalf("jobs=%d: SimulateContext differs from Simulate", jobs)
		}
	}
}

func TestSimulateContextProgress(t *testing.T) {
	sc := smallScenario()
	var final runner.Stats
	if _, err := sc.SimulateContext(context.Background(), 4,
		WithJobs(2),
		WithProgress(func(s runner.Stats) { final = s })); err != nil {
		t.Fatal(err)
	}
	if final.Completed != 4 || final.Runs != 4 {
		t.Errorf("final stats = %+v, want 4/4 completed", final)
	}
	if final.Ticks != int64(4*sc.Ticks) {
		t.Errorf("ticks = %d, want %d", final.Ticks, 4*sc.Ticks)
	}
}

func TestSimulateContextTimeout(t *testing.T) {
	sc := smallScenario()
	sc.Ticks = 100000 // far beyond anything a nanosecond budget allows
	_, err := sc.SimulateContext(context.Background(), 4, WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	sc := smallScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.SimulateContext(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidate(t *testing.T) {
	sc := smallScenario()
	if err := sc.Validate(); err != nil {
		t.Errorf("valid scenario: %v", err)
	}
	if err := (&Scenario{Worm: RandomWorm(0.8)}).Validate(); err == nil {
		t.Error("missing topology should fail validation")
	}
	if err := (&Scenario{Topology: Star(10)}).Validate(); err == nil {
		t.Error("missing worm should fail validation")
	}
	bad := smallScenario()
	bad.Worm = LocalPreferentialWorm(0.8, 2)
	if err := bad.Validate(); err == nil {
		t.Error("invalid worm spec should fail validation")
	}
	hubOnPL := smallScenario()
	hubOnPL.Defense = HubCap(2)
	if err := hubOnPL.Validate(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("hub cap on power-law should be unsupported, got %v", err)
	}
	neg := smallScenario()
	neg.InitialInfected = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative initial infections should fail validation")
	}
}

// TestScenarioWarnings: the one advisory left is track-subnets on a
// star, which has no subnet partition.
func TestScenarioWarnings(t *testing.T) {
	small := smallScenario()
	if w := small.Warnings(); len(w) != 0 {
		t.Errorf("power-law scenario should not warn, got %v", w)
	}
	star := smallScenario()
	star.Topology = Star(40)
	star.Defense = NoDefense()
	if w := star.Warnings(); len(w) != 0 {
		t.Errorf("star without track-subnets should not warn, got %v", w)
	}
	star.TrackSubnets = true
	if w := star.Warnings(); len(w) != 1 || !strings.Contains(w[0], "track-subnets") {
		t.Errorf("track-subnets on a star should warn once, got %v", w)
	}
}
