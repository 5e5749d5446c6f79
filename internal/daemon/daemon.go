// Package daemon implements wormsimd: a long-lived simulation service
// that accepts scenario-spec submissions over HTTP, schedules them on
// the runner pool with per-job priorities and a bounded queue, streams
// per-tick progress as JSONL/SSE, shares one LRU-capped topology cache
// across jobs, and persists enough state (job records + engine
// checkpoints, all through safeio's crash-durable commit path) that
// in-flight jobs resume after a restart — even an unclean one — and
// finish with a result byte-identical to an uninterrupted run.
package daemon

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/safeio"
	"repro/internal/spec"
)

// Job lifecycle states, persisted verbatim in job.json. "interrupted"
// is in-memory only: a job whose daemon is shutting down keeps state
// "running" on disk so the next daemon re-enqueues and resumes it.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted"
)

// Defaults for Config zero values.
const (
	DefaultQueueCap        = 64
	DefaultExecutors       = 1
	DefaultNetCacheCap     = 8
	DefaultCheckpointEvery = 200
	DefaultGCInterval      = time.Minute
)

// Config configures a daemon Server. The zero value of every field
// except DataDir picks a sensible default.
type Config struct {
	// DataDir is the root of the daemon's persistent state; jobs live
	// in DataDir/jobs/<id>/. Required.
	DataDir string
	// QueueCap bounds how many jobs may wait in the queue; submissions
	// beyond it are rejected (HTTP 429). Running jobs don't count.
	QueueCap int
	// Executors is how many jobs run concurrently. Each job's replica
	// parallelism is its own spec's run.jobs knob.
	Executors int
	// NetCacheCap bounds the shared topology cache (distinct nets kept
	// in memory across jobs); <0 means unbounded.
	NetCacheCap int
	// CheckpointEvery is the tick interval between engine checkpoints
	// for every job (the restart-recovery granularity).
	CheckpointEvery int
	// TTL, when > 0, garbage-collects settled jobs (done, failed,
	// canceled) once they have been settled at least this long: the
	// job directory is removed and the job leaves the table. 0 keeps
	// everything forever.
	TTL time.Duration
	// GCInterval is how often the janitor scans for expired jobs and
	// stuck runs (default one minute). Only meaningful when TTL or
	// StuckAfter enables the janitor.
	GCInterval time.Duration
	// StuckAfter, when > 0, is the watchdog deadline: a running job
	// whose engine reports no tick progress for this long is cancelled
	// and marked failed (or re-enqueued, see StuckRequeue). Must
	// comfortably exceed the scenario's topology construction time,
	// which ticks no heartbeats. 0 disables the watchdog.
	StuckAfter time.Duration
	// StuckRequeue re-enqueues a watchdog-killed job (to resume from
	// its checkpoints) instead of failing it — for wedges worth one
	// more try, e.g. an executor stalled by transient I/O.
	StuckRequeue bool
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.Executors == 0 {
		c.Executors = DefaultExecutors
	}
	if c.NetCacheCap == 0 {
		c.NetCacheCap = DefaultNetCacheCap
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.GCInterval == 0 {
		c.GCInterval = DefaultGCInterval
	}
	return c
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrQueueFull = errors.New("daemon: job queue full")
	ErrClosed    = errors.New("daemon: server closed")
	ErrNotFound  = errors.New("daemon: no such job")
	ErrFinished  = errors.New("daemon: job already finished")
)

// Job is one submitted scenario spec moving through the daemon.
// Immutable fields are set at creation; mutable state is guarded by
// Server.mu.
type Job struct {
	id        string
	seq       int
	name      string
	priority  int
	submitted string
	dir       string
	spec      *spec.Spec
	broker    *broker

	// Guarded by Server.mu.
	state       string
	err         string
	pointsTotal int
	pointsDone  int
	canceled    bool
	stuck       bool
	cancel      context.CancelFunc
	// settled is when the job reached a terminal state (zero while
	// queued/running); the TTL garbage collector measures age from it.
	settled time.Time
	// collecting is set while the TTL garbage collector removes the
	// job's directory: the job is already invisible to the API (404)
	// but stays in the table until its directory is gone.
	collecting bool
	// lastStats is the current grid point's live replica-batch
	// progress, refreshed by the sweep's Progress callback.
	lastStats runner.Stats

	// lastBeat is the watchdog heartbeat: unix-nano of the most recent
	// engine tick (or lifecycle transition). Atomic because engine
	// worker goroutines stamp it on the tick path without taking
	// Server.mu.
	lastBeat atomic.Int64
}

// Server is the daemon: scheduler, executors, job table, and shared
// topology cache. Create with New, serve its Handler, stop with Close.
type Server struct {
	cfg     Config
	jobsDir string
	cache   *spec.NetCache
	pool    *runner.Pool
	mux     *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wake   chan struct{}

	mu          sync.Mutex
	jobs        map[string]*Job
	queue       jobQueue
	queuedCount int
	// queueHighWater is the deepest the queue has been — sizing signal
	// for QueueCap, surfaced in /stats.
	queueHighWater int
	nextSeq        int
	closed         bool

	// Robustness counters (atomic: bumped from executor, janitor, and
	// collector goroutines without Server.mu). Surfaced in /stats and
	// /healthz.
	quarantined      atomic.Int64 // artifacts moved to quarantine/ by the startup scrub
	tempCleaned      atomic.Int64 // stale safeio temp files removed by the scrub
	gcRemoved        atomic.Int64 // settled job dirs removed by the TTL janitor
	checkpointSkips  atomic.Int64 // checkpoints shed under disk pressure (ErrNoSpace)
	persistErrors    atomic.Int64 // job.json commits that failed (daemon kept going)
	watchdogStuck    atomic.Int64 // running jobs the watchdog killed
	watchdogRequeues atomic.Int64 // of those, how many were re-enqueued
}

// New builds a Server over cfg.DataDir, reloading any persisted jobs
// (interrupted ones are re-enqueued to resume from their checkpoints)
// and starting the executor goroutines.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("daemon: Config.DataDir is required")
	}
	jobsDir := filepath.Join(cfg.DataDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		jobsDir: jobsDir,
		cache:   spec.NewNetCache(cfg.NetCacheCap),
		pool:    runner.New(runner.WithJobs(1)),
		ctx:     ctx,
		cancel:  cancel,
		wake:    make(chan struct{}, 1),
		jobs:    make(map[string]*Job),
		nextSeq: 1,
	}
	s.mux = s.newMux()
	// Scrub before the rescan: stale temp files go away, and corrupt or
	// half-created artifacts (a crash between mkdir and the first
	// commit, a truncated job.json, a damaged checkpoint) move to
	// quarantine/ so the rescan sees only loadable state. A scrub
	// failure is fatal only if the data dir itself is unusable.
	if err := s.scrub(); err != nil {
		cancel()
		return nil, err
	}
	s.mu.Lock()
	err := s.loadJobs()
	s.mu.Unlock()
	if err != nil {
		cancel()
		return nil, err
	}
	s.gcExpired(time.Now())
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	if cfg.TTL > 0 || cfg.StuckAfter > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// Close stops the daemon: new submissions are rejected, running jobs
// are cancelled, and Close blocks until the executors drain. Jobs that
// were mid-run keep their persisted state "running", so a subsequent
// New over the same DataDir re-enqueues them and they resume from
// their checkpoints.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Submit parses a spec (JSON or YAML), validates it, and enqueues it as
// a new job. Returns ErrQueueFull when the queue is at capacity and
// ErrClosed after Close; any other error means the spec was rejected.
func (s *Server) Submit(data []byte, priority int) (*Job, error) {
	ps, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	if err := refuseTraceFiles(ps); err != nil {
		return nil, err
	}
	points, err := ps.Points()
	if err != nil {
		return nil, err
	}
	// An invalid first point is the submitter's 400. Later points are
	// compiled as the sweep reaches them, and an invalid one fails
	// there, by name: compiling every point here would let a spec of a
	// few hundred bytes hold the handler for one topology build per
	// grid point.
	pt, name, err := ps.Point(0)
	if err == nil {
		_, err = pt.Compile(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("spec: point %s: %w", name, err)
	}
	canonical, err := ps.Canonical()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.queuedCount >= s.cfg.QueueCap {
		return nil, ErrQueueFull
	}
	seq := s.nextSeq
	s.nextSeq++
	j := &Job{
		id:          fmt.Sprintf("j%06d", seq),
		seq:         seq,
		name:        ps.Name,
		priority:    priority,
		submitted:   time.Now().UTC().Format(time.RFC3339),
		spec:        ps,
		broker:      newBroker(defaultHistory),
		state:       StateQueued,
		pointsTotal: points,
	}
	j.dir = filepath.Join(s.jobsDir, j.id)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if err := writeSpecFile(j.dir, canonical); err != nil {
		return nil, err
	}
	s.jobs[j.id] = j
	s.persistLocked(j)
	j.broker.publish(StreamRecord{Type: "job", State: StateQueued})
	s.pushLocked(j)
	return j, nil
}

// refuseTraceFiles rejects a spec that could replay a trace file — a
// "trace" workload, or a grid axis on workload or workload.kind (in any
// letter case, as the spec decoder matches field names): its path names
// a file on the daemon's host, which Compile and the executor would
// open, and a FIFO there would wedge them.
func refuseTraceFiles(s *spec.Spec) error {
	if s.Workload != nil && s.Workload.Kind == "trace" {
		return fmt.Errorf("daemon: workload.kind \"trace\" reads a file on the daemon's host; submit a synthetic workload")
	}
	for i, ax := range s.Grid {
		segs := strings.Split(ax.Path, ".")
		if strings.EqualFold(segs[0], "workload") && (len(segs) == 1 || len(segs) == 2 && strings.EqualFold(segs[1], "kind")) {
			return fmt.Errorf("daemon: grid[%d] sets %s, which could select a trace-file workload; vary the synthetic profile's fields instead", i, ax.Path)
		}
	}
	return nil
}

// Cancel stops a job: a queued job is dequeued immediately; a running
// job's context is cancelled and it winds down asynchronously (watch
// its stream or poll its state). Finished jobs return ErrFinished.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.collecting {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = "canceled before start"
		j.canceled = true
		j.settled = time.Now()
		s.queuedCount-- // stays in the heap; the executor skips it
		s.persistLocked(j)
		j.broker.close(StreamRecord{Type: "job", State: StateCanceled, Error: j.err})
		s.mu.Unlock()
		return nil
	case StateRunning:
		j.canceled = true
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		s.mu.Unlock()
		return ErrFinished
	}
}

// executor pulls jobs off the priority queue and runs them until the
// server closes.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks until a queued job is available (returning it in the
// running state) or the server closes (returning nil).
func (s *Server) nextJob() *Job {
	for {
		s.mu.Lock()
		for len(s.queue) > 0 {
			j := heap.Pop(&s.queue).(*Job)
			if j.state != StateQueued {
				continue // canceled while queued; already accounted
			}
			j.state = StateRunning
			// Arm the watchdog heartbeat with the state change: a job
			// must not count as stuck before its first tick just because
			// topology construction takes a while, and a running job
			// must never be skipped by the watchdog as unarmed.
			j.lastBeat.Store(time.Now().UnixNano())
			s.queuedCount--
			s.persistLocked(j)
			more := len(s.queue) > 0
			s.mu.Unlock()
			if more {
				s.wakeUp() // other executors may still have work
			}
			return j
		}
		s.mu.Unlock()
		select {
		case <-s.ctx.Done():
			return nil
		case <-s.wake:
		}
	}
}

func (s *Server) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runJob executes one job as a one-task pool batch (so a panicking
// scenario fails the job, not the daemon) and settles its final state.
func (s *Server) runJob(j *Job) {
	jctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	s.mu.Lock()
	j.cancel = cancel
	if j.canceled || j.stuck {
		// Cancel or the watchdog reached the job after nextJob marked it
		// running but before its cancel func existed.
		cancel()
	}
	s.mu.Unlock()
	j.broker.publish(StreamRecord{Type: "job", State: StateRunning})

	_, err := s.pool.Run(jctx, 1, func(ctx context.Context, _ int) (runner.Report, error) {
		return runner.Report{}, s.execute(ctx, j)
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.settled = time.Now()
		s.persistLocked(j)
		j.broker.close(StreamRecord{Type: "job", State: StateDone})
	case j.canceled:
		j.state = StateCanceled
		j.err = "canceled"
		j.settled = time.Now()
		s.persistLocked(j)
		j.broker.close(StreamRecord{Type: "job", State: StateCanceled, Error: j.err})
	case s.ctx.Err() != nil:
		// Daemon shutdown, not job failure: leave the persisted state
		// "running" so the next daemon resumes this job from its
		// checkpoints. Close the broker so live streams end now.
		j.state = StateInterrupted
		j.broker.close(StreamRecord{Type: "job", State: StateInterrupted})
	case j.stuck && s.cfg.StuckRequeue:
		// Watchdog kill, re-enqueue policy: back on the queue to
		// resume from checkpoints, like a restart would.
		j.stuck = false
		j.state = StateQueued
		j.pointsDone = 0
		j.lastStats = runner.Stats{}
		s.watchdogRequeues.Add(1)
		s.persistLocked(j)
		j.broker.publish(StreamRecord{Type: "job", State: StateQueued,
			Error: fmt.Sprintf("watchdog: no tick progress within %v; re-enqueued", s.cfg.StuckAfter)})
		s.pushLocked(j)
	case j.stuck:
		j.state = StateFailed
		j.err = fmt.Sprintf("watchdog: no tick progress within %v", s.cfg.StuckAfter)
		j.settled = time.Now()
		s.persistLocked(j)
		j.broker.close(StreamRecord{Type: "job", State: StateFailed, Error: j.err})
	default:
		j.state = StateFailed
		j.err = err.Error()
		j.settled = time.Now()
		s.persistLocked(j)
		j.broker.close(StreamRecord{Type: "job", State: StateFailed, Error: j.err})
	}
}

// execute runs the job's sweep through the shared topology cache, with
// every grid point checkpointing into (and resuming from) its own
// directory under the job, and per-tick metrics flowing to the job's
// stream broker. On success it writes result.json and discards the
// checkpoints.
func (s *Server) execute(ctx context.Context, j *Job) error {
	pointIdx := 0
	mod := func(c *spec.Compiled) {
		// Sweep points run serially, and mod sees each one, so this
		// counter needs no lock and follows the grid.
		dir := filepath.Join(j.dir, "checkpoints", fmt.Sprintf("point-%03d", pointIdx))
		pointIdx++
		point := c.Name
		c.Options.Checkpoint = dir
		c.Options.Resume = dir
		c.Options.CheckpointEvery = s.cfg.CheckpointEvery
		// Degrade under disk pressure instead of failing the replica: a
		// full disk costs recovery granularity (the next restart replays
		// from an older checkpoint), not the job. Any other write error
		// still aborts — it means durable state can't be trusted.
		c.Options.OnCheckpointError = func(run int, err error) error {
			if errors.Is(err, safeio.ErrNoSpace) {
				s.checkpointSkips.Add(1)
				j.broker.publish(StreamRecord{
					Type: "event", Point: point, Run: run,
					Error: "checkpoint skipped: " + err.Error(),
				})
				return nil
			}
			return err
		}
		c.Options.Collectors = func(run int) obs.Collector {
			return &streamCollector{b: j.broker, job: j, point: point, run: run}
		}
		c.Options.Progress = func(st runner.Stats) {
			s.mu.Lock()
			j.lastStats = st
			s.mu.Unlock()
			j.broker.publish(StreamRecord{
				Type: "progress", Point: point,
				Completed: st.Completed, Runs: st.Runs, Ticks: st.Ticks,
			})
			if st.Done() {
				s.pointDone(j, point, st)
			}
		}
	}

	results, _, err := spec.Sweep(ctx, j.spec, mod, s.cache)
	if err != nil {
		return err
	}
	if err := s.writeResult(j, results); err != nil {
		return err
	}
	// The result is durably committed; the checkpoints have served
	// their purpose.
	if err := os.RemoveAll(filepath.Join(j.dir, "checkpoints")); err != nil {
		fmt.Fprintf(os.Stderr, "wormsimd: clean checkpoints %s: %v\n", j.id, err)
	}
	return nil
}

// pointDone records one grid point's completion: bumps the persisted
// progress counter and emits a "point" stream record.
func (s *Server) pointDone(j *Job, point string, st runner.Stats) {
	s.mu.Lock()
	j.pointsDone++
	s.persistLocked(j)
	s.mu.Unlock()
	j.broker.publish(StreamRecord{
		Type: "point", Point: point,
		Completed: st.Completed, Runs: st.Runs, Ticks: st.Ticks,
	})
}

// jobQueue is a priority heap: higher priority first, submission order
// within a priority.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, k int) bool {
	if q[i].priority != q[k].priority {
		return q[i].priority > q[k].priority
	}
	return q[i].seq < q[k].seq
}
func (q jobQueue) Swap(i, k int) { q[i], q[k] = q[k], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// pushLocked enqueues a job (Server.mu held) and wakes an executor.
func (s *Server) pushLocked(j *Job) {
	heap.Push(&s.queue, j)
	s.queuedCount++
	if s.queuedCount > s.queueHighWater {
		s.queueHighWater = s.queuedCount
	}
	s.wakeUp()
}

// writeSpecFile commits the canonical spec into the job directory.
func writeSpecFile(dir string, canonical []byte) error {
	return safeio.WriteFile(filepath.Join(dir, "spec.json"), canonical, 0o644)
}
