package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/safeio"
	"repro/internal/spec"
)

// jobRecord is the persisted face of a Job: everything a restarted
// daemon needs to rebuild its schedule. It lives in the job directory
// as job.json, written atomically (and crash-durably — the parent-dir
// fsync in safeio exists exactly for this file and the checkpoints
// beside it) at every state transition. Timestamps and other
// nondeterministic detail stay here, never in result.json.
type jobRecord struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Priority    int    `json:"priority"`
	State       string `json:"state"`
	Error       string `json:"error,omitempty"`
	PointsTotal int    `json:"points_total"`
	PointsDone  int    `json:"points_done"`
	Submitted   string `json:"submitted,omitempty"`
	// Settled is when the job reached a terminal state (RFC3339;
	// omitted while queued/running) — the TTL garbage collector's
	// clock. Additive: records written before this field existed load
	// fine and fall back to job.json's mtime.
	Settled string `json:"settled,omitempty"`
}

// persistLocked writes the job's current state to its job.json. Called
// with Server.mu held. A persistence failure is reported on stderr and
// remembered on the job rather than crashing the daemon: the in-memory
// schedule stays authoritative for this process, and the operator sees
// the disk problem.
func (s *Server) persistLocked(j *Job) {
	rec := jobRecord{
		ID:          j.id,
		Name:        j.name,
		Priority:    j.priority,
		State:       j.state,
		Error:       j.err,
		PointsTotal: j.pointsTotal,
		PointsDone:  j.pointsDone,
		Submitted:   j.submitted,
	}
	if !j.settled.IsZero() {
		rec.Settled = j.settled.UTC().Format(time.RFC3339)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		data = append(data, '\n')
		err = safeio.WriteFile(filepath.Join(j.dir, "job.json"), data, 0o644)
	}
	if err != nil {
		s.persistErrors.Add(1)
		fmt.Fprintf(os.Stderr, "wormsimd: persist %s: %v\n", j.id, err)
	}
}

// loadJobs scans the data directory and rebuilds the job table: done,
// failed, and canceled jobs become read-only history; queued and
// running jobs are re-enqueued — a job that was mid-run when the
// daemon died resumes from its checkpoints, because its checkpoint
// directories are passed back as RunOptions.Resume when it runs again.
// A job directory with unreadable state is reported and skipped, never
// fatal: one corrupt entry must not keep the daemon down.
func (s *Server) loadJobs() error {
	entries, err := os.ReadDir(s.jobsDir)
	if err != nil {
		return fmt.Errorf("daemon: scan %s: %w", s.jobsDir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(s.jobsDir, name)
		j, rec, err := loadJob(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wormsimd: skipping job dir %s: %v\n", dir, err)
			continue
		}
		s.jobs[j.id] = j
		if j.seq >= s.nextSeq {
			s.nextSeq = j.seq + 1
		}
		switch rec.State {
		case StateQueued, StateRunning:
			// Interrupted or never started: back on the queue. PointsDone
			// restarts at zero — the points re-run (fast, from their
			// checkpoints) and the counter tracks this execution.
			j.state = StateQueued
			j.pointsDone = 0
			j.broker.publish(StreamRecord{Type: "job", State: StateQueued})
			s.pushLocked(j)
		default:
			// Terminal states replay as a single closed-stream record.
			j.broker.close(StreamRecord{Type: "job", State: j.state, Error: j.err})
		}
	}
	return nil
}

// loadJob reads one persisted job (job.json + spec.json) back into
// memory.
func loadJob(dir string) (*Job, jobRecord, error) {
	var rec jobRecord
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return nil, rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, rec, fmt.Errorf("job.json: %w", err)
	}
	var seq int
	if _, err := fmt.Sscanf(rec.ID, "j%d", &seq); err != nil {
		return nil, rec, fmt.Errorf("job id %q: %w", rec.ID, err)
	}
	specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, rec, err
	}
	ps, err := spec.Parse(specData)
	if err != nil {
		return nil, rec, fmt.Errorf("spec.json: %w", err)
	}
	points, err := ps.Points()
	if err != nil {
		return nil, rec, fmt.Errorf("spec.json: %w", err)
	}
	j := &Job{
		id:          rec.ID,
		seq:         seq,
		name:        rec.Name,
		priority:    rec.Priority,
		submitted:   rec.Submitted,
		dir:         dir,
		spec:        ps,
		broker:      newBroker(defaultHistory),
		state:       rec.State,
		err:         rec.Error,
		pointsTotal: points,
		pointsDone:  rec.PointsDone,
	}
	switch rec.State {
	case StateDone, StateFailed, StateCanceled:
		if t, err := time.Parse(time.RFC3339, rec.Settled); err == nil {
			j.settled = t
		} else if fi, err := os.Stat(filepath.Join(dir, "job.json")); err == nil {
			// Terminal record predating the Settled field: its job.json
			// was last written at settlement, so the mtime is the
			// settlement time.
			j.settled = fi.ModTime()
		}
	}
	return j, rec, nil
}

// resultDoc is the payload of result.json: the job's complete outcome,
// deterministic in the spec alone. No job IDs, timestamps, wall-clock
// stats, or cache counters belong here — the restart-resume guarantee
// is that an interrupted-and-resumed job produces a result.json
// byte-identical to an uninterrupted run's, and anything
// environment-dependent would break that.
type resultDoc struct {
	Name   string        `json:"name"`
	Points []resultPoint `json:"points"`
}

// resultPoint is one grid point's outcome.
type resultPoint struct {
	Name     string   `json:"name"`
	Error    string   `json:"error,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	// T50 is the first tick the infected fraction reached 0.5
	// (interpolated); -1 when it never did. Final/Ever are the last
	// tick's infected and ever-infected fractions.
	T50   float64 `json:"t50"`
	Final float64 `json:"final_infected"`
	Ever  float64 `json:"ever_infected"`
	// The averaged per-tick series (index 0 = after the first tick).
	Infected   []float64 `json:"infected,omitempty"`
	EverSeries []float64 `json:"ever,omitempty"`
	Immunized  []float64 `json:"immunized,omitempty"`
	Backlog    []int     `json:"backlog,omitempty"`
}

// writeResult renders the sweep outcome and commits it atomically as
// the job's result.json.
func (s *Server) writeResult(j *Job, results []spec.PointResult) error {
	doc := resultDoc{Name: j.spec.Name, Points: make([]resultPoint, 0, len(results))}
	if doc.Name == "" {
		doc.Name = "scenario"
	}
	for _, r := range results {
		p := resultPoint{Name: r.Name, Warnings: r.Warnings, T50: -1, Final: -1, Ever: -1}
		if r.Err != nil {
			p.Error = r.Err.Error()
		}
		if r.Result != nil {
			p.T50 = finiteOr(r.Result.TimeToLevel(0.5), -1)
			p.Final = finiteOr(r.Result.FinalInfected(), -1)
			p.Ever = finiteOr(r.Result.FinalEverInfected(), -1)
			p.Infected = r.Result.Infected
			p.EverSeries = r.Result.EverInfected
			p.Immunized = r.Result.Immunized
			p.Backlog = r.Result.Backlog
		}
		doc.Points = append(doc.Points, p)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("daemon: marshal result: %w", err)
	}
	data = append(data, '\n')
	return safeio.WriteFile(filepath.Join(j.dir, "result.json"), data, 0o644)
}

// finiteOr replaces NaN (JSON has no encoding for it) with a sentinel.
func finiteOr(v, sentinel float64) float64 {
	if math.IsNaN(v) {
		return sentinel
	}
	return v
}
