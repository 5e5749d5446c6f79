// Package core runs replica batches: RunOptions is the one declarative
// description of how a batch executes (parallelism, deadlines,
// retries, checkpoints, progress, metrics), BindRunFlags exposes it on
// a command line, and Run executes a sim.Config under it on the bounded
// replica pool, with per-replica checkpoints and resume.
//
// Check runs the engine's per-tick invariant audit (sim.ErrInvariant);
// every resumed checkpoint is audited as sim.Restore rebuilds it, and
// one that contradicts itself fails its replica with sim.ErrSnapshot.
//
// Scenarios, trace-replay workloads included, are internal/spec's: a
// spec.Spec lowers to the sim.Config Run takes, and
// (*spec.Compiled).Run is the one-call path to its averaged series.
package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
)

// RunOptions is the one declarative description of how a batch of
// replicas executes: parallelism, deadlines, fault tolerance,
// checkpointing, and observability. It is the single source of truth
// for every run knob — Run takes it, experiment.Options embeds it,
// BindRunFlags exposes it on a command line, and the spec compiler
// (internal/spec) produces it from a scenario file. The zero
// value runs with library defaults (GOMAXPROCS replica workers, no
// timeout, fail fast).
//
// RunOptions lowers to the runner's own options in exactly one place,
// RunnerOptions; nothing else in the module translates run knobs.
type RunOptions struct {
	// Jobs bounds the replica worker pool (0 = GOMAXPROCS). The
	// averaged result is identical for every job count.
	Jobs int
	// Timeout aborts the whole batch after this duration, returning
	// context.DeadlineExceeded (0 = none).
	Timeout time.Duration
	// Check runs every replica under the engine's per-tick invariant
	// audit; a violated invariant aborts the batch with an error
	// matching sim.ErrInvariant.
	Check bool
	// KeepGoing degrades gracefully instead of aborting the batch when
	// a replica fails after its retries: the averaged result covers
	// the replicas that completed, and the returned runner.Stats name
	// what was lost. A batch where every replica failed still errors.
	KeepGoing bool
	// Retries re-runs a failed replica (error, panic, or timeout) up
	// to this many extra attempts with exponential backoff (0 = fail
	// on the first error).
	Retries int
	// RetryBackoff is the base delay of the retry backoff (0 means
	// 500ms; attempt k waits base<<k plus deterministic jitter).
	RetryBackoff time.Duration
	// ReplicaTimeout bounds the wall-clock time of one replica
	// attempt; an attempt that exceeds it fails with
	// runner.ErrTaskTimeout and is retried under Retries (0 = none).
	ReplicaTimeout time.Duration
	// Checkpoint, when set, writes each replica's engine snapshot into
	// this directory (replica-NNN.ckpt) every CheckpointEvery ticks,
	// through the atomic safeio path.
	Checkpoint string
	// CheckpointEvery is the tick interval between checkpoints (0
	// means 10).
	CheckpointEvery int
	// Resume restarts replicas from previously written checkpoints:
	// a checkpoint directory (each replica loads its own
	// replica-NNN.ckpt; replicas without one start fresh) or, for
	// single-replica batches, one checkpoint file. A checkpoint that
	// exists but fails verification fails its replica explicitly.
	Resume string

	// Progress, when non-nil, observes live runner.Stats after every
	// finished replica. Not serializable; CLI- or caller-supplied.
	Progress func(runner.Stats)
	// OnCheckpointError, when non-nil, is consulted before a failed
	// checkpoint write aborts its replica. Returning nil swallows the
	// failure and the run continues (the caller accepted losing that
	// checkpoint — e.g. the daemon skipping checkpoints under disk
	// pressure, errors.Is(err, safeio.ErrNoSpace)); returning an error
	// aborts the replica as before. Not serializable; caller-supplied.
	OnCheckpointError func(run int, err error) error
	// Collectors, when non-nil, builds a per-replica metrics collector
	// (see internal/obs), replacing the config's own CollectorFactory;
	// called from worker goroutines and must be safe for concurrent
	// calls with distinct run indices. Not serializable;
	// caller-supplied.
	Collectors func(run int) obs.Collector
}

// Validate checks every knob. Error messages name the command-line
// flag each knob binds to (BindRunFlags), so CLI validation can
// surface them unchanged.
func (o *RunOptions) Validate() error {
	switch {
	case o.Jobs < 0:
		return fmt.Errorf("core: -jobs must be >= 0 (0 = GOMAXPROCS), got %d", o.Jobs)
	case o.Timeout < 0:
		return fmt.Errorf("core: -timeout must be >= 0, got %v", o.Timeout)
	case o.Retries < 0:
		return fmt.Errorf("core: -retries must be >= 0, got %d", o.Retries)
	case o.RetryBackoff < 0:
		return fmt.Errorf("core: -retry-backoff must be >= 0, got %v", o.RetryBackoff)
	case o.ReplicaTimeout < 0:
		return fmt.Errorf("core: -replica-timeout must be >= 0, got %v", o.ReplicaTimeout)
	case o.CheckpointEvery < 0:
		return fmt.Errorf("core: -checkpoint-every must be >= 0 (0 = default), got %d", o.CheckpointEvery)
	}
	return nil
}

// RunnerOptions lowers the declarative options to the runner pool's
// option set. This is the only place in the module where run knobs
// translate to runner.Options — core batches and experiment figure
// batches both lower through it.
func (o *RunOptions) RunnerOptions() []runner.Option {
	opts := []runner.Option{runner.WithJobs(o.Jobs)}
	if o.Progress != nil {
		opts = append(opts, runner.WithProgress(o.Progress))
	}
	if o.Retries > 0 {
		base := o.RetryBackoff
		if base <= 0 {
			base = DefaultRetryBackoff
		}
		opts = append(opts, runner.WithRetry(o.Retries, base))
	}
	if o.ReplicaTimeout > 0 {
		opts = append(opts, runner.WithTaskTimeout(o.ReplicaTimeout))
	}
	if o.KeepGoing {
		opts = append(opts, runner.WithKeepGoing())
	}
	return opts
}

// Run executes cfg `runs` times on a bounded replica pool and returns
// the averaged per-tick series with the batch's final runner.Stats
// (replicas completed/failed/retried, ticks simulated, failure
// details). It is the one batch entry point the spec compiler, the
// sweep engine, and the figure harness share: it validates the
// options, applies the batch timeout, installs the audit, collectors,
// and checkpoint/resume sinks on cfg, lowers the remaining
// knobs through RunOptions.RunnerOptions, and executes on
// sim.MultiRun. Each replica seeds its RNG from cfg.Seed plus its
// index, so the result is deterministic and independent of the job
// count. Cancelling ctx (or exceeding o.Timeout) aborts the batch
// between simulation ticks and returns the context's error.
func Run(ctx context.Context, cfg sim.Config, runs int, o RunOptions) (*sim.Result, runner.Stats, error) {
	if err := o.Validate(); err != nil {
		return nil, runner.Stats{}, err
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	cfg.Check = cfg.Check || o.Check
	if o.Collectors != nil {
		cfg.CollectorFactory = o.Collectors
	}
	info, statErr := os.Stat(o.Resume)
	fromFile := o.Resume != "" && statErr == nil && !info.IsDir()
	if fromFile && runs != 1 {
		return nil, runner.Stats{}, fmt.Errorf("core: -resume with a single checkpoint file needs runs=1, got %d (pass the checkpoint directory instead)", runs)
	}
	if err := wireCheckpoints(&cfg, &o, fromFile); err != nil {
		return nil, runner.Stats{}, err
	}
	return sim.MultiRun(ctx, cfg, runs, o.RunnerOptions()...)
}

// replicaCheckpoint names replica run's checkpoint in the batch
// directory dir: dir/replica-NNN.ckpt.
func replicaCheckpoint(dir string, run int) string {
	return filepath.Join(dir, fmt.Sprintf("replica-%03d.ckpt", run))
}

// wireCheckpoints installs o's per-replica checkpoint and resume sinks
// on cfg. A non-empty o.Checkpoint is created, and replica r then
// writes replicaCheckpoint(o.Checkpoint, r) every o.CheckpointEvery
// ticks (0 means 10), consulting o.OnCheckpointError on a failed
// write. A non-empty o.Resume makes replica r restore from
// replicaCheckpoint(o.Resume, r) — or, with resumeFile, from the one
// checkpoint file o.Resume — and start fresh when that file does not
// exist.
func wireCheckpoints(cfg *sim.Config, o *RunOptions, resumeFile bool) error {
	if dir, onErr := o.Checkpoint, o.OnCheckpointError; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("core: checkpoint dir: %w", err)
		}
		cfg.CheckpointEvery = o.CheckpointEvery
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = 10
		}
		cfg.CheckpointFactory = func(run int) func(*sim.Snapshot) error {
			path := replicaCheckpoint(dir, run)
			return func(snap *sim.Snapshot) error {
				err := sim.WriteSnapshot(path, snap)
				if err != nil && onErr != nil {
					// The caller decides whether losing this checkpoint
					// is survivable (e.g. skip-under-ENOSPC) or fatal.
					err = onErr(run, err)
				}
				return err
			}
		}
	}
	if resume := o.Resume; resume != "" {
		cfg.ResumeFactory = func(run int) (*sim.Snapshot, error) {
			path := resume
			if !resumeFile {
				path = replicaCheckpoint(resume, run)
			}
			snap, err := sim.ReadSnapshot(path)
			if errors.Is(err, fs.ErrNotExist) {
				return nil, nil // no checkpoint for this replica: start fresh
			}
			return snap, err
		}
	}
	return nil
}
