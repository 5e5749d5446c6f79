package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/worm"
)

// multiRunConfig is a small congested scenario exercising queues, rate
// limits, and subnet/latency tracking — every averaged series.
func multiRunConfig(t *testing.T) Config {
	t.Helper()
	g, err := topology.BarabasiAlbert(120, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph: g, Roles: roles, Subnet: topology.Subnets(g, roles),
		Beta: 0.8, ScansPerTick: 5, MaxQueue: 50,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 2, Ticks: 60, Seed: 3,
		LimitedNodes: DeployBackbone(roles), BaseRate: 0.4,
		TrackSubnets: true, TrackLatency: true,
	}
}

// TestMultiRunDeterministicAcrossJobs is the regression guard for the
// pool rework: the averaged series must be byte-identical for jobs=1
// and jobs=GOMAXPROCS (and any job count in between), because each
// replica's RNG stream is fixed by its index, not by scheduling.
func TestMultiRunDeterministicAcrossJobs(t *testing.T) {
	cfg := multiRunConfig(t)
	const runs = 6
	serial, _, err := MultiRun(context.Background(), cfg, runs, runner.WithJobs(1))
	if err != nil {
		t.Fatalf("jobs=1: %v", err)
	}
	for _, jobs := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		parallel, _, err := MultiRun(context.Background(), cfg, runs, runner.WithJobs(jobs))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("jobs=%d result differs from jobs=1", jobs)
		}
	}
	// And the default pool (no options) sees the same series.
	dflt, _, err := MultiRun(context.Background(), cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, dflt) {
		t.Fatal("default-jobs result differs from jobs=1")
	}
}

func TestMultiRunContextCancellation(t *testing.T) {
	cfg := multiRunConfig(t)
	cfg.Ticks = 3000 // long enough that cancellation lands mid-run

	ctx, cancel := context.WithCancel(context.Background())
	var last runner.Stats
	started := make(chan struct{}, 64)
	go func() {
		<-started
		cancel()
	}()
	_, _, err := MultiRun(ctx, cfg, 8,
		runner.WithJobs(2),
		runner.WithProgress(func(s runner.Stats) {
			select {
			case started <- struct{}{}:
			default:
			}
			last = s
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last.Runs != 8 {
		t.Errorf("stats.Runs = %d, want 8", last.Runs)
	}
	if last.Completed == 8 {
		t.Error("cancellation should leave the batch incomplete")
	}
}

func TestMultiRunContextAlreadyCancelled(t *testing.T) {
	cfg := multiRunConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MultiRun(ctx, cfg, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMultiRunContextProgressStats(t *testing.T) {
	cfg := multiRunConfig(t)
	var final runner.Stats
	res, _, err := MultiRun(context.Background(), cfg, 4,
		runner.WithJobs(2),
		runner.WithProgress(func(s runner.Stats) { final = s }))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infected) != cfg.Ticks {
		t.Fatalf("series length %d, want %d", len(res.Infected), cfg.Ticks)
	}
	if final.Completed != 4 || final.Failed != 0 {
		t.Errorf("final stats = %+v, want 4 completed", final)
	}
	if want := int64(4 * cfg.Ticks); final.Ticks != want {
		t.Errorf("ticks = %d, want %d", final.Ticks, want)
	}
	if final.Wall <= 0 || final.TicksPerSec() <= 0 {
		t.Errorf("throughput not measured: %+v", final)
	}
}
