package sim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// crashCollector panics at a chosen tick — injected through
// CollectorFactory, it crashes one replica mid-run without any
// engine-side test hooks.
type crashCollector struct {
	at int
}

func (c *crashCollector) Tick(m obs.TickMetrics) {
	if m.Tick == c.at {
		panic(fmt.Sprintf("chaos: injected collector panic at tick %d", m.Tick))
	}
}

func (c *crashCollector) Event(obs.Event) {}

type nopCollector struct{}

func (nopCollector) Tick(obs.TickMetrics) {}
func (nopCollector) Event(obs.Event)      {}

// TestMultiRunDegradesOnReplicaPanic: with keep-going, a replica that
// panics mid-run is reported in Stats.Failures and the aggregate is
// the exact average of the replicas that completed.
func TestMultiRunDegradesOnReplicaPanic(t *testing.T) {
	cfg := goldenScenarios(t)["star-open"]
	const runs = 4
	const crashed = 2
	cfg.CollectorFactory = func(run int) obs.Collector {
		if run == crashed {
			return &crashCollector{at: 30}
		}
		return nil
	}

	agg, stats, err := MultiRun(context.Background(), cfg, runs,
		runner.WithJobs(2), runner.WithKeepGoing())
	if err != nil {
		t.Fatalf("degraded batch returned error: %v", err)
	}
	if stats.Completed != runs-1 || stats.Failed != 1 {
		t.Fatalf("stats = %+v, want %d completed 1 failed", stats, runs-1)
	}
	var pe *runner.PanicError
	if len(stats.Failures) != 1 || stats.Failures[0].Index != crashed ||
		!errors.As(stats.Failures[0].Err, &pe) {
		t.Fatalf("failures = %+v, want replica %d with a captured panic", stats.Failures, crashed)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic failure carries no stack trace")
	}

	// The degraded aggregate must equal the hand-built average of the
	// surviving replicas, byte for byte.
	want := make([]float64, cfg.Ticks)
	n := 0
	for r := 0; r < runs; r++ {
		if r == crashed {
			continue
		}
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		c.CollectorFactory = nil
		res := mustRun(t, c)
		for i, v := range res.Infected {
			want[i] += v
		}
		n++
	}
	inv := 1 / float64(n)
	for i := range want {
		want[i] *= inv
	}
	if !reflect.DeepEqual(agg.Infected, want) {
		t.Error("degraded aggregate is not the exact average of the completed replicas")
	}
}

// TestMultiRunAllReplicasFailed: total failure is an error even under
// keep-going — there is nothing to aggregate.
func TestMultiRunAllReplicasFailed(t *testing.T) {
	cfg := goldenScenarios(t)["star-open"]
	cfg.CollectorFactory = func(run int) obs.Collector {
		return &crashCollector{at: 5}
	}
	_, stats, err := MultiRun(context.Background(), cfg, 3,
		runner.WithJobs(3), runner.WithKeepGoing())
	if err == nil {
		t.Fatal("batch with zero completed replicas must error")
	}
	if stats.Failed != 3 {
		t.Errorf("stats = %+v, want 3 failed", stats)
	}
}

// cancelAtCollector cancels a context from inside the engine loop at a
// chosen tick — a deterministic stand-in for a daemon drain or replica
// timeout landing mid-run.
type cancelAtCollector struct {
	at     int
	cancel context.CancelFunc
}

func (c cancelAtCollector) Tick(m obs.TickMetrics) {
	if m.Tick == c.at {
		c.cancel()
	}
}
func (c cancelAtCollector) Event(obs.Event) {}

// TestCancelWritesFinalCheckpoint pins the drain contract: a cancelled
// run leaves a best-effort checkpoint at the exact tick boundary it
// stopped on — not just the last CheckpointEvery multiple — so a
// drained daemon resumes with zero re-simulated ticks. The resumed run
// still finishes identical to an uninterrupted one.
func TestCancelWritesFinalCheckpoint(t *testing.T) {
	cfg := goldenScenarios(t)["star-open"]
	path := filepath.Join(t.TempDir(), "replica-000.ckpt")

	clean, _, err := MultiRun(context.Background(), cfg, 1, runner.WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chaos := cfg
	chaos.CheckpointEvery = 10
	chaos.CheckpointFactory = func(run int) func(*Snapshot) error {
		return func(s *Snapshot) error { return WriteSnapshot(path, s) }
	}
	chaos.CollectorFactory = func(run int) obs.Collector {
		return cancelAtCollector{at: 25, cancel: cancel}
	}
	if _, _, err := MultiRun(ctx, chaos, 1, runner.WithJobs(1)); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("no final checkpoint after cancellation: %v", err)
	}
	// Cancel fires inside tick 25; the loop notices at the tick-26
	// boundary and must snapshot there, past the periodic point at 20.
	if snap.NextTick != 26 {
		t.Fatalf("final checkpoint at tick %d, want 26 (the cancellation boundary)", snap.NextTick)
	}

	resumed := cfg
	resumed.ResumeFactory = func(run int) (*Snapshot, error) { return ReadSnapshot(path) }
	agg, _, err := MultiRun(context.Background(), resumed, 1, runner.WithJobs(1))
	if err != nil {
		t.Fatalf("resume from drain checkpoint: %v", err)
	}
	if !reflect.DeepEqual(agg.Infected, clean.Infected) ||
		!reflect.DeepEqual(agg.Backlog, clean.Backlog) {
		t.Error("run resumed from the drain checkpoint diverged from the uninterrupted run")
	}
}

// TestMultiRunRetryResumesFromCheckpoint is the full crash-recovery
// loop: a replica panics on its first attempt after writing
// checkpoints; the retry resumes from the replica's last checkpoint
// (not tick zero) and the batch still produces the byte-identical
// clean aggregate.
func TestMultiRunRetryResumesFromCheckpoint(t *testing.T) {
	cfg := goldenScenarios(t)["star-hub-capped"]
	const runs = 3
	const victim = 1
	dir := t.TempDir()
	ckpt := func(r int) string { return filepath.Join(dir, fmt.Sprintf("replica-%03d.ckpt", r)) }

	clean, _, err := MultiRun(context.Background(), cfg, runs, runner.WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}

	var attempts atomic.Int32
	var mu sync.Mutex
	resumedFrom := -1
	chaos := cfg
	chaos.CheckpointEvery = 10
	chaos.CheckpointFactory = func(run int) func(*Snapshot) error {
		path := ckpt(run)
		return func(s *Snapshot) error { return WriteSnapshot(path, s) }
	}
	chaos.ResumeFactory = func(run int) (*Snapshot, error) {
		s, err := ReadSnapshot(ckpt(run))
		if err != nil {
			return nil, nil // no checkpoint yet: start fresh
		}
		if run == victim {
			mu.Lock()
			if s.NextTick > resumedFrom {
				resumedFrom = s.NextTick
			}
			mu.Unlock()
		}
		return s, nil
	}
	chaos.CollectorFactory = func(run int) obs.Collector {
		if run == victim && attempts.Add(1) == 1 {
			return &crashCollector{at: 25} // first attempt dies after checkpoints at 10 and 20
		}
		return nil
	}

	agg, stats, err := MultiRun(context.Background(), chaos, runs,
		runner.WithJobs(1), runner.WithRetry(2, 0), runner.WithKeepGoing())
	if err != nil {
		t.Fatalf("chaos batch: %v", err)
	}
	if stats.Completed != runs || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want full recovery", stats)
	}
	if stats.Retries == 0 {
		t.Error("expected at least one retry")
	}
	if resumedFrom != 20 {
		t.Errorf("victim resumed from tick %d, want 20 (last checkpoint before the crash)", resumedFrom)
	}
	if !reflect.DeepEqual(agg.Infected, clean.Infected) ||
		!reflect.DeepEqual(agg.Backlog, clean.Backlog) {
		t.Error("recovered batch diverged from the clean batch")
	}
}
