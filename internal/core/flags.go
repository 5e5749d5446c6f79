package core

import (
	"flag"
	"strconv"
	"time"
)

// BindRunFlags registers one command-line flag per RunOptions knob on
// fs, storing parsed values directly into o. Both CLIs (wormsim,
// figures) bind their run flags through this single helper, so every
// knob exists on every command with one name, one type, and one help
// string; o's pre-set fields become the flag defaults, which is how the
// CLIs keep their different keep-going defaults. Progress, Collectors,
// and Net are runtime hooks, not flags, and are left untouched.
func BindRunFlags(fs *flag.FlagSet, o *RunOptions) {
	fs.IntVar(&o.Jobs, "jobs", o.Jobs, "max concurrent replica simulations (0 = GOMAXPROCS)")
	fs.DurationVar(&o.Timeout, "timeout", o.Timeout, "abort the whole batch after this duration (0 = none)")
	fs.BoolVar(&o.Check, "check", o.Check, "run every replica under the per-tick invariant audit (slower; catches engine bugs)")
	fs.BoolVar(&o.KeepGoing, "keep-going", o.KeepGoing, "average over completed replicas when some fail instead of aborting the batch")
	fs.IntVar(&o.Retries, "retries", o.Retries, "retry a failed replica up to this many extra attempts")
	fs.DurationVar(&o.RetryBackoff, "retry-backoff", o.RetryBackoff, "base delay of the exponential retry backoff (0 = 500ms)")
	fs.DurationVar(&o.ReplicaTimeout, "replica-timeout", o.ReplicaTimeout, "wall-clock bound per replica attempt (0 = none)")
	fs.StringVar(&o.Checkpoint, "checkpoint", o.Checkpoint, "directory for periodic per-replica snapshots (empty = off)")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", o.CheckpointEvery, "ticks between checkpoints (0 = default 10)")
	fs.StringVar(&o.Resume, "resume", o.Resume, "resume replicas from this checkpoint directory (or single .ckpt file when runs=1)")
	fs.Func("trace-replay", "drive scans from a trace-replay workload: a trace file path, or 'synthetic' for the generator's traffic profile (empty = β draws)", func(v string) error {
		w := ensureWorkload(o)
		if v == WorkloadSynthetic {
			w.Kind, w.Path = WorkloadSynthetic, ""
		} else {
			w.Kind, w.Path = WorkloadTrace, v
		}
		return nil
	})
	fs.Func("trace-tick-ms", "trace milliseconds one engine tick spans under -trace-replay (0 = 1000)", func(v string) error {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		ensureWorkload(o).TickMS = ms
		return nil
	})
}

// ensureWorkload returns o's workload spec, allocating it on first use
// so the two -trace-* flags compose in either order.
func ensureWorkload(o *RunOptions) *WorkloadSpec {
	if o.Workload == nil {
		o.Workload = &WorkloadSpec{}
	}
	return o.Workload
}

// runFlagNames lists the flags BindRunFlags registers, in registration
// order, so MergeRunFlags can tell explicitly-set flags apart from
// defaults.
var runFlagNames = map[string]bool{
	"jobs": true, "timeout": true, "check": true,
	"keep-going": true, "retries": true, "retry-backoff": true,
	"replica-timeout": true, "checkpoint": true, "checkpoint-every": true,
	"resume": true, "trace-replay": true, "trace-tick-ms": true,
}

// MergeRunFlags overlays the run flags the user explicitly set on the
// command line onto base and returns the result. This is how a spec
// file and the command line compose: the spec's run section supplies
// base, and only flags actually present in the invocation override it —
// an untouched flag's default never clobbers a spec value. fs must have
// been populated by BindRunFlags(fs, cli) and parsed.
func MergeRunFlags(fs *flag.FlagSet, base, cli RunOptions) RunOptions {
	out := base
	fs.Visit(func(f *flag.Flag) {
		if !runFlagNames[f.Name] {
			return
		}
		switch f.Name {
		case "jobs":
			out.Jobs = cli.Jobs
		case "timeout":
			out.Timeout = cli.Timeout
		case "check":
			out.Check = cli.Check
		case "keep-going":
			out.KeepGoing = cli.KeepGoing
		case "retries":
			out.Retries = cli.Retries
		case "retry-backoff":
			out.RetryBackoff = cli.RetryBackoff
		case "replica-timeout":
			out.ReplicaTimeout = cli.ReplicaTimeout
		case "checkpoint":
			out.Checkpoint = cli.Checkpoint
		case "checkpoint-every":
			out.CheckpointEvery = cli.CheckpointEvery
		case "resume":
			out.Resume = cli.Resume
		case "trace-replay":
			// The flag decides the source; everything else (tick
			// mapping, populations) stays with the spec's workload.
			w := out.Workload.clone()
			if w == nil {
				w = &WorkloadSpec{}
			}
			w.Kind, w.Path = cli.Workload.Kind, cli.Workload.Path
			out.Workload = w
		case "trace-tick-ms":
			w := out.Workload.clone()
			if w == nil {
				w = &WorkloadSpec{}
			}
			w.TickMS = cli.Workload.TickMS
			out.Workload = w
		}
	})
	return out
}

// DefaultRetryBackoff is the base delay RunnerOptions substitutes when
// Retries is set but RetryBackoff is zero.
const DefaultRetryBackoff = 500 * time.Millisecond
