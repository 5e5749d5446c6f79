package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// RunOptions is the one declarative description of how a batch of
// replicas executes: parallelism, deadlines, fault tolerance,
// checkpointing, and observability. It is the single source of truth
// for every run knob — the With* functional options are thin setters
// over it, experiment.Options embeds it, BindRunFlags exposes it on a
// command line, and the spec compiler (internal/spec) produces it from
// a scenario file. The zero value runs with library defaults
// (GOMAXPROCS replica workers, no timeout, fail fast).
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
	// matching obs.ErrInvariant.
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
	// Workload, when non-nil, replaces the worm's β-draw scan source
	// with a trace-replay workload (see WorkloadSpec): worm scans and
	// benign background flows stream from a synthetic traffic profile
	// or a trace file, competing for the same rate-limiter credits, and
	// the run reports collateral damage (benign contacts throttled) via
	// the obs counters.
	Workload *WorkloadSpec

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
	// (see internal/obs); called from worker goroutines and must be
	// safe for concurrent calls with distinct run indices. Not
	// serializable; caller-supplied.
	Collectors func(run int) obs.Collector
	// Net, when non-nil, supplies prebuilt topology state (graph,
	// roles, routing tables) for the scenario, skipping
	// materialization — see Scenario.BuildNet. The Net's key must
	// match the scenario's NetKey; sweeps use this to share one
	// routing construction across grid points.
	Net *Net
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
	if o.Workload != nil {
		return o.Workload.Validate()
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

// ReplicaCheckpoint is the per-replica checkpoint naming scheme shared
// by every checkpoint layout in the module (core's flat directory,
// experiment's per-figure batches): replica run of a batch rooted at
// dir checkpoints to dir/replica-NNN.ckpt.
func ReplicaCheckpoint(dir string, run int) string {
	return filepath.Join(dir, fmt.Sprintf("replica-%03d.ckpt", run))
}

// RunOption tunes how SimulateContext executes a batch of replicas.
// Each option sets one field of a RunOptions; callers who prefer the
// declarative form pass a RunOptions to SimulateOptions directly.
type RunOption func(*RunOptions)

// WithJobs bounds the replica worker pool at n concurrent simulations
// (default GOMAXPROCS). The averaged result is identical for every job
// count; only wall time changes.
func WithJobs(n int) RunOption {
	return func(o *RunOptions) { o.Jobs = n }
}

// WithTimeout aborts the batch after d, returning
// context.DeadlineExceeded. Zero or negative means no timeout.
func WithTimeout(d time.Duration) RunOption {
	return func(o *RunOptions) { o.Timeout = d }
}

// WithProgress installs a callback observing live runner.Stats (runs
// completed, ticks simulated, ticks/sec) after every finished replica.
func WithProgress(fn func(runner.Stats)) RunOption {
	return func(o *RunOptions) { o.Progress = fn }
}

// WithCollectors installs a per-replica metrics collector factory (see
// internal/obs): factory(r) builds replica r's collector before its
// engine starts. The factory is called from worker goroutines and must
// be safe for concurrent calls with distinct r.
func WithCollectors(factory func(run int) obs.Collector) RunOption {
	return func(o *RunOptions) { o.Collectors = factory }
}

// WithCheck runs every replica under the engine's per-tick invariant
// audit; a violated invariant aborts the batch with an error matching
// obs.ErrInvariant.
func WithCheck() RunOption {
	return func(o *RunOptions) { o.Check = true }
}

// WithRetry retries a failed replica (error, panic, or timeout) up to
// max extra attempts with exponential backoff from base (0 means
// 500ms) plus deterministic jitter. Combined with WithCheckpoints and
// WithResume, a retried replica restarts from its own last checkpoint
// rather than tick zero.
func WithRetry(max int, base time.Duration) RunOption {
	return func(o *RunOptions) {
		o.Retries = max
		o.RetryBackoff = base
	}
}

// WithReplicaTimeout bounds the wall-clock time of one replica attempt;
// an attempt that exceeds it fails with runner.ErrTaskTimeout (and is
// retried under WithRetry).
func WithReplicaTimeout(d time.Duration) RunOption {
	return func(o *RunOptions) { o.ReplicaTimeout = d }
}

// WithKeepGoing degrades gracefully instead of aborting the batch when
// a replica fails after its retries: the averaged result covers the
// replicas that completed, and SimulateStats' runner.Stats.Failures
// names what was lost. A batch where every replica failed still
// errors.
func WithKeepGoing() RunOption {
	return func(o *RunOptions) { o.KeepGoing = true }
}

// WithCheckpoints writes each replica's engine snapshot into dir (one
// file per replica, replica-NNN.ckpt) every `every` ticks (0 means
// 10), through the atomic safeio path: a crash mid-write never leaves
// a truncated checkpoint.
func WithCheckpoints(dir string, every int) RunOption {
	return func(o *RunOptions) {
		o.Checkpoint = dir
		o.CheckpointEvery = every
	}
}

// WithResume resumes each replica from a previously written
// checkpoint. path is either a checkpoint directory (each replica
// loads its own replica-NNN.ckpt; replicas without one start fresh)
// or, for single-replica batches, one checkpoint file. A checkpoint
// that exists but fails verification (corruption, version skew, or a
// config mismatch) fails the replica explicitly — it is never silently
// ignored.
func WithResume(path string) RunOption {
	return func(o *RunOptions) { o.Resume = path }
}

// WithWorkload replaces the worm's β-draw scan source with a
// trace-replay workload (see WorkloadSpec): scans and benign
// background flows stream from a traffic profile or trace file and
// compete for the same rate-limiter credits.
func WithWorkload(w *WorkloadSpec) RunOption {
	return func(o *RunOptions) { o.Workload = w }
}

// WithNet runs the batch over prebuilt topology state (see
// Scenario.BuildNet), skipping graph materialization and routing
// construction. The Net must have been built from a scenario with the
// same NetKey.
func WithNet(n *Net) RunOption {
	return func(o *RunOptions) { o.Net = n }
}
