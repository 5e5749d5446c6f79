// Package runner is the run-orchestration layer: a bounded worker pool
// that executes indexed batches of deterministic work — simulation
// replicas, whole-figure experiment regenerations — with
// context.Context cancellation, per-worker panic capture, and live
// progress statistics. The pool itself is deliberately ignorant of
// what a task computes: determinism is the caller's contract (each
// task derives everything it needs, typically an RNG seed, from its
// index), which makes results independent of worker count and
// scheduling order.
//
// The pool runs batches of whole replicas (sim.MultiRun) and of whole
// figures (experiment.RunAllStats); a single replica's tick loop is serial.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
)

// Stats is a snapshot of batch progress. Counters are cumulative over
// one Pool.Run call.
type Stats struct {
	// Runs is the total number of tasks in the batch.
	Runs int
	// Started counts tasks handed to a worker (including ones that
	// later failed). Started never exceeds Runs; after a cancellation
	// it reports how far the batch got.
	Started int
	// Completed counts tasks that returned without error.
	Completed int
	// Failed counts tasks that returned an error or panicked.
	Failed int
	// Ticks is the total work units (simulation ticks) reported by
	// finished tasks. Zero when tasks do not report ticks.
	Ticks int64
	// Counters aggregates (by key-wise summation) the counter maps
	// finished tasks returned in their Reports — per-replica
	// observability stats such as scan attempts or dropped packets.
	// Nil when no task reported counters. Snapshots handed to progress
	// callbacks carry a private copy; the final Stats returned by Run
	// own theirs.
	Counters map[string]int64
	// Retries is the total number of retry attempts across the batch
	// (attempts beyond each task's first), whether or not they
	// eventually succeeded.
	Retries int
	// Failures records every task that exhausted its attempts, in
	// completion order. Snapshots handed to progress callbacks carry a
	// private copy.
	Failures []Failure
	// Wall is the elapsed time since the batch started.
	Wall time.Duration
}

// Failure describes one task that failed after all its attempts.
type Failure struct {
	// Index is the failed task's batch index.
	Index int
	// Attempts is how many times the task was tried (>= 1).
	Attempts int
	// Err is the final attempt's error. A *PanicError carries the
	// panicking goroutine's stack; ErrTaskTimeout marks an attempt that
	// exceeded the per-task deadline.
	Err error
}

// TicksPerSec is the batch's aggregate simulation throughput so far.
func (s Stats) TicksPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Ticks) / s.Wall.Seconds()
}

// Done reports whether every task in the batch has finished.
func (s Stats) Done() bool { return s.Completed+s.Failed == s.Runs }

// Report is what a finished task contributes to the batch Stats.
type Report struct {
	// Ticks is the work units (simulation ticks) the task performed;
	// it feeds Stats.Ticks and the throughput estimate. Zero when not
	// meaningful.
	Ticks int64
	// Counters are optional named stats summed key-wise into
	// Stats.Counters (key-wise summation is order-independent, so the
	// aggregate stays deterministic across worker counts). The pool
	// takes ownership of the map.
	Counters map[string]int64
}

// Task executes one indexed unit of a batch. index is dense in
// [0, runs); a task needing randomness must derive its seed from index
// so the batch result is independent of worker count. The returned
// Report feeds the batch Stats (return the zero Report when not
// meaningful). The context is cancelled when the batch is: long tasks
// should poll it.
type Task func(ctx context.Context, index int) (Report, error)

// PanicError wraps a panic recovered from a task so one crashing
// replica fails its batch with a diagnosable error instead of taking
// the process down.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %d panicked: %v", e.Index, e.Value)
}

// ErrTaskTimeout marks a task attempt that exceeded the per-task
// deadline installed with WithTaskTimeout. The attempt's goroutine is
// abandoned (it exits when it next observes its cancelled context);
// the pool moves on — a hung replica cannot stall the batch.
var ErrTaskTimeout = errors.New("runner: task attempt exceeded deadline")

// Pool executes batches with a fixed number of worker goroutines.
// A Pool is stateless between Run calls and safe for concurrent use.
type Pool struct {
	jobs        int
	progress    func(Stats)
	retries     int
	backoff     time.Duration
	taskTimeout time.Duration
	keepGoing   bool
}

// Option configures a Pool.
type Option func(*Pool)

// WithJobs bounds the pool at n concurrent workers. n <= 0 selects the
// default, GOMAXPROCS.
func WithJobs(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.jobs = n
		}
	}
}

// WithProgress installs a callback invoked with a snapshot after every
// task finishes (and once at batch start). Calls are serialized and
// snapshots are monotonic; the callback must not block for long — it
// runs on the worker that just finished.
func WithProgress(fn func(Stats)) Option {
	return func(p *Pool) { p.progress = fn }
}

// WithRetry retries a failed task up to max additional attempts,
// sleeping between attempts with exponential backoff (base, 2·base,
// 4·base, ... capped at 64·base) plus up to 50% deterministic jitter
// derived from the task index and attempt number — no global
// randomness, so retry schedules are reproducible. max <= 0 disables
// retries; base <= 0 retries immediately.
func WithRetry(max int, base time.Duration) Option {
	return func(p *Pool) {
		if max > 0 {
			p.retries = max
			p.backoff = base
		}
	}
}

// WithTaskTimeout gives every task attempt its own deadline, distinct
// from any batch-level timeout on the caller's context. An attempt
// exceeding it fails with an error wrapping ErrTaskTimeout and — since
// a hung task cannot be forcibly killed — its goroutine is abandoned to
// exit on its own when it observes the cancelled context. Abandoned
// attempts must therefore not mutate state the caller reads after
// Run returns without synchronization.
func WithTaskTimeout(d time.Duration) Option {
	return func(p *Pool) {
		if d > 0 {
			p.taskTimeout = d
		}
	}
}

// WithKeepGoing turns off fail-fast: a task that exhausts its attempts
// is recorded in Stats.Failures and the batch continues with the
// remaining tasks instead of aborting. Run then returns a nil error
// for task failures (inspect Stats.Failures); cancellation of the
// caller's context still aborts the batch and is still returned.
func WithKeepGoing() Option {
	return func(p *Pool) { p.keepGoing = true }
}

// New builds a pool. With no options it runs GOMAXPROCS workers and
// reports no progress.
func New(opts ...Option) *Pool {
	p := &Pool{jobs: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Jobs returns the configured worker bound.
func (p *Pool) Jobs() int { return p.jobs }

// batch is the mutable state of one Run call.
type batch struct {
	mu       sync.Mutex
	stats    Stats
	firstErr error
	start    time.Time
	progress func(Stats)
}

// snapshot refreshes Wall and invokes the progress callback while the
// lock is held, guaranteeing callers see monotonic snapshots. The
// callback gets a private copy of the counter map so later merges
// cannot race with a callback that retained its snapshot.
func (b *batch) snapshotLocked() {
	b.stats.Wall = time.Since(b.start)
	if b.progress != nil {
		b.progress(b.stats.withCounterCopy())
	}
}

// withCounterCopy returns s with Counters and Failures replaced by
// private copies.
func (s Stats) withCounterCopy() Stats {
	if s.Counters != nil {
		c := make(map[string]int64, len(s.Counters))
		for k, v := range s.Counters {
			c[k] = v
		}
		s.Counters = c
	}
	if s.Failures != nil {
		s.Failures = append([]Failure(nil), s.Failures...)
	}
	return s
}

func (b *batch) noteStarted() {
	b.mu.Lock()
	b.stats.Started++
	b.mu.Unlock()
}

func (b *batch) noteFinished(index, attempts int, rep Report, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Ticks += rep.Ticks
	b.stats.Retries += attempts - 1
	if len(rep.Counters) > 0 {
		if b.stats.Counters == nil {
			b.stats.Counters = make(map[string]int64, len(rep.Counters))
		}
		for k, v := range rep.Counters {
			b.stats.Counters[k] += v
		}
	}
	if err != nil {
		b.stats.Failed++
		b.stats.Failures = append(b.stats.Failures, Failure{Index: index, Attempts: attempts, Err: err})
		if b.firstErr == nil {
			b.firstErr = err
		}
	} else {
		b.stats.Completed++
	}
	b.snapshotLocked()
}

// Run executes runs tasks on the pool and blocks until they finish or
// the batch is aborted. By default the batch aborts on the first task
// error (fail-fast: the remaining tasks are cancelled via ctx and not
// started); with WithKeepGoing, failed tasks are recorded in
// Stats.Failures and the rest of the batch still runs. Failed tasks
// are first retried per WithRetry, and each attempt is bounded by
// WithTaskTimeout. Cancelling ctx always aborts the batch. The
// returned Stats are final for this batch — after an abort they
// describe the partial progress. The error is the first task error
// (fail-fast mode only), or ctx's error when the caller's context
// ended the batch, or nil.
func (p *Pool) Run(ctx context.Context, runs int, task Task) (Stats, error) {
	b := &batch{stats: Stats{Runs: runs}, start: time.Now(), progress: p.progress}
	if runs <= 0 {
		b.mu.Lock()
		b.snapshotLocked()
		b.mu.Unlock()
		return b.stats, nil
	}
	if err := ctx.Err(); err != nil {
		b.mu.Lock()
		b.snapshotLocked()
		b.mu.Unlock()
		return b.stats, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	b.mu.Lock()
	b.snapshotLocked() // initial snapshot: batch started
	b.mu.Unlock()

	jobs := p.jobs
	if jobs > runs {
		jobs = runs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= runs {
					return
				}
				b.noteStarted()
				rep, attempts, err := p.runWithRetry(runCtx, i, task)
				b.noteFinished(i, attempts, rep, err)
				if err != nil && !p.keepGoing {
					cancel() // fail fast: abort the rest of the batch
					return
				}
			}
		}()
	}
	wg.Wait()

	b.mu.Lock()
	b.stats.Wall = time.Since(b.start)
	stats, err := b.stats.withCounterCopy(), b.firstErr
	b.mu.Unlock()
	if p.keepGoing {
		// Task failures are data (Stats.Failures), not a batch error.
		err = nil
	}
	if cerr := ctx.Err(); cerr != nil {
		// The caller's context ended the batch; prefer reporting that
		// over the secondary errors it induced in in-flight tasks.
		err = cerr
	}
	return stats, err
}

// runWithRetry executes one task until it succeeds, exhausts the
// pool's retry budget, or the batch is cancelled. It returns the number
// of attempts made (>= 1) alongside the last attempt's report/error.
func (p *Pool) runWithRetry(ctx context.Context, index int, task Task) (Report, int, error) {
	attempts := 0
	for {
		attempts++
		rep, err := p.runAttempt(ctx, index, task)
		if err == nil || attempts > p.retries {
			return rep, attempts, err
		}
		if ctx.Err() != nil {
			// The batch is over; the attempt's error is a symptom of the
			// cancellation, not something a retry can fix.
			return rep, attempts, err
		}
		if !sleepBackoff(ctx, p.backoff, index, attempts) {
			return rep, attempts, err
		}
	}
}

// sleepBackoff waits the exponential-backoff-with-jitter delay before
// retry number attempt of the given task. Returns false when the batch
// was cancelled during the wait.
func sleepBackoff(ctx context.Context, base time.Duration, index, attempt int) bool {
	if base <= 0 {
		return ctx.Err() == nil
	}
	d := base << min(attempt-1, 6) // cap the exponent: 64·base
	// Up to +50% deterministic jitter, derived from (index, attempt) so
	// the schedule is reproducible and concurrent retries desynchronize.
	frac := float64(splitmix64(uint64(index)<<32|uint64(attempt))>>11) / (1 << 53)
	d += time.Duration(frac * 0.5 * float64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// splitmix64 hashes x to one SplitMix64 draw: the first draw of the
// stream whose counter is x.
func splitmix64(x uint64) uint64 { return splitmix.Next(&x) }

// runAttempt invokes one task attempt under the pool's per-task
// deadline. Without a deadline the task runs inline on the worker; with
// one it runs on its own goroutine so an attempt that overstays can be
// abandoned — the goroutine exits when the task observes its cancelled
// context, and its eventual result is discarded.
func (p *Pool) runAttempt(ctx context.Context, index int, task Task) (Report, error) {
	if p.taskTimeout <= 0 {
		return runTask(ctx, index, task)
	}
	actx, cancel := context.WithTimeout(ctx, p.taskTimeout)
	defer cancel()
	type outcome struct {
		rep Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := runTask(actx, index, task)
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		return o.rep, o.err
	case <-actx.Done():
		if ctx.Err() != nil {
			// The batch itself ended; report that, not a task timeout.
			return Report{}, ctx.Err()
		}
		return Report{}, fmt.Errorf("task %d after %v: %w", index, p.taskTimeout, ErrTaskTimeout)
	}
}

// runTask invokes one task, converting a panic into a *PanicError.
func runTask(ctx context.Context, index int, task Task) (rep Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return task(ctx, index)
}
