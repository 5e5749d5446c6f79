package core

import (
	"flag"
	"fmt"
	"time"
)

// BindRunFlags registers one command-line flag per RunOptions knob on
// fs, storing parsed values directly into o. Both CLIs (wormsim,
// figures) bind their run flags through this single helper, so every
// knob exists on every command with one name, one type, and one help
// string; o's pre-set fields become the flag defaults, which is how the
// CLIs keep their different keep-going defaults. Progress, Collectors,
// and OnCheckpointError are runtime hooks, not flags, and are left
// untouched.
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
}

// MergeRunFlags overlays the run flags the user explicitly set on fs
// onto base and returns the result. This is how a spec file and the
// command line compose: the spec's run section supplies base, and only
// flags actually present in the invocation override it — an untouched
// flag's default never clobbers a spec value. Each set flag is
// replayed, by its textual value, onto a BindRunFlags binding of a copy
// of base; fs must have been populated by BindRunFlags and parsed.
func MergeRunFlags(fs *flag.FlagSet, base RunOptions) RunOptions {
	out := base
	replay := flag.NewFlagSet("", flag.ContinueOnError)
	BindRunFlags(replay, &out)
	fs.Visit(func(f *flag.Flag) {
		if replay.Lookup(f.Name) == nil {
			return
		}
		if err := replay.Set(f.Name, f.Value.String()); err != nil {
			// fs parsed this very value with the same flag type.
			panic(fmt.Sprintf("core: run flag -%s does not round-trip: %v", f.Name, err))
		}
	})
	return out
}

// DefaultRetryBackoff is the base delay RunnerOptions substitutes when
// Retries is set but RetryBackoff is zero.
const DefaultRetryBackoff = 500 * time.Millisecond
