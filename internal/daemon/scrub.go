package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/safeio"
	"repro/internal/sim"
	"repro/internal/spec"
)

// This file is the daemon's self-healing: the startup scrub that
// quarantines damaged artifacts so a restart always comes up serving,
// the TTL garbage collector that keeps the data dir bounded, and the
// watchdog that kills wedged runs. The scrub exists for damage safeio
// cannot prevent — external truncation, bit rot, another process's
// partial writes — plus the two kinds of debris our own crashes do
// leave: orphaned temp files and job directories created but never
// populated (a crash inside Submit between MkdirAll and the first
// commit).

// scrub sweeps the jobs tree before the rescan: safeio temp debris is
// deleted, empty half-created job directories are removed, and any job
// directory whose durable artifacts (job.json, spec.json, result.json)
// are missing or unparseable moves wholesale into DataDir/quarantine/
// with a sidecar .error.json naming what was wrong. Damaged checkpoint
// files are quarantined individually — resume treats a missing
// checkpoint as "start fresh", so losing one costs re-simulated ticks,
// not the job. Only an unusable data dir (unreadable, unwritable) is
// fatal.
func (s *Server) scrub() error {
	qdir := filepath.Join(s.cfg.DataDir, "quarantine")
	entries, err := os.ReadDir(s.jobsDir)
	if err != nil {
		return fmt.Errorf("daemon: scan %s: %w", s.jobsDir, err)
	}
	for _, e := range entries {
		path := filepath.Join(s.jobsDir, e.Name())
		if !e.IsDir() {
			if safeio.IsTempName(e.Name()) {
				if os.Remove(path) == nil {
					s.tempCleaned.Add(1)
				}
			}
			continue
		}
		if err := s.scrubJobDir(path, qdir); err != nil {
			return err
		}
	}
	return nil
}

// scrubJobDir heals one job directory (see scrub).
func (s *Server) scrubJobDir(dir, qdir string) error {
	s.sweepTemps(dir)

	reason := jobDirDamage(dir)
	if reason == "empty" {
		// A crash between MkdirAll and writeSpecFile: the submission was
		// never acknowledged, there is nothing to preserve.
		os.Remove(dir)
		return nil
	}
	if reason != "" {
		return s.quarantine(dir, qdir, reason)
	}

	// Artifacts are sound; now vet the checkpoints individually.
	ckroot := filepath.Join(dir, "checkpoints")
	var bad []string
	err := filepath.WalkDir(ckroot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ckpt") {
			return nil //nolint:nilerr // a vanished entry is not damage
		}
		if _, rerr := sim.ReadSnapshot(path); rerr != nil {
			bad = append(bad, path)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("daemon: scrub %s: %w", ckroot, err)
	}
	for _, path := range bad {
		if err := s.quarantine(path, qdir, "checkpoint failed verification"); err != nil {
			return err
		}
	}
	return nil
}

// sweepTemps deletes safeio temp debris (interrupted commits) anywhere
// under dir.
func (s *Server) sweepTemps(dir string) {
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err == nil && !d.IsDir() && safeio.IsTempName(d.Name()) {
			if os.Remove(path) == nil {
				s.tempCleaned.Add(1)
			}
		}
		return nil
	})
}

// jobDirDamage inspects a job directory's durable artifacts and returns
// a reason string when the directory cannot be trusted: "" means sound,
// "empty" means safely removable, anything else is a quarantine reason.
func jobDirDamage(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if errors.Is(err, fs.ErrNotExist) {
		entries, rerr := os.ReadDir(dir)
		if rerr == nil && len(entries) == 0 {
			return "empty"
		}
		return "job.json missing"
	}
	if err != nil {
		return "job.json unreadable: " + err.Error()
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "job.json corrupt: " + err.Error()
	}
	var seq int
	if _, err := fmt.Sscanf(rec.ID, "j%d", &seq); err != nil {
		return fmt.Sprintf("job.json corrupt: id %q", rec.ID)
	}

	specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return "spec.json unreadable: " + err.Error()
	}
	if _, err := spec.Parse(specData); err != nil {
		return "spec.json corrupt: " + err.Error()
	}

	if data, err := os.ReadFile(filepath.Join(dir, "result.json")); err == nil {
		if !json.Valid(data) {
			return "result.json corrupt"
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return "result.json unreadable: " + err.Error()
	}
	return ""
}

// quarantine moves one damaged artifact (file or whole job directory)
// into qdir under a collision-free name and writes a structured
// .error.json beside it so the operator can tell what was wrong and
// where it came from without trusting daemon logs.
func (s *Server) quarantine(path, qdir, reason string) error {
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("daemon: quarantine: %w", err)
	}
	base := filepath.Base(path)
	dest := filepath.Join(qdir, base)
	for n := 1; ; n++ {
		if _, err := os.Lstat(dest); errors.Is(err, fs.ErrNotExist) {
			break
		}
		// Restarts reuse job ids and every replica checkpoint is named
		// replica-NNN.ckpt, so collisions are routine.
		dest = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, n))
	}
	if err := os.Rename(path, dest); err != nil {
		return fmt.Errorf("daemon: quarantine %s: %w", path, err)
	}
	s.quarantined.Add(1)
	note, err := json.MarshalIndent(struct {
		Artifact string `json:"artifact"`
		Reason   string `json:"reason"`
		Time     string `json:"time"`
	}{path, reason, time.Now().UTC().Format(time.RFC3339)}, "", "  ")
	if err == nil {
		err = safeio.WriteFile(dest+".error.json", append(note, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormsimd: quarantine note for %s: %v\n", dest, err)
	}
	fmt.Fprintf(os.Stderr, "wormsimd: quarantined %s: %s\n", path, reason)
	return nil
}

// gcExpired removes settled jobs whose TTL has lapsed: the job
// directory is deleted, then the job leaves the table (its stream
// history with it). While its directory is being removed the job is
// marked collecting, so the API already answers 404 for it and nobody
// sees the job gone from the table with its directory still on disk.
// Queued and running jobs are never touched.
func (s *Server) gcExpired(now time.Time) {
	if s.cfg.TTL <= 0 {
		return
	}
	s.mu.Lock()
	var expired []*Job
	for _, j := range s.jobs {
		switch j.state {
		case StateDone, StateFailed, StateCanceled:
			if !j.collecting && !j.settled.IsZero() && now.Sub(j.settled) >= s.cfg.TTL {
				j.collecting = true
				expired = append(expired, j)
			}
		}
	}
	s.mu.Unlock()
	for _, j := range expired {
		if err := os.RemoveAll(j.dir); err != nil {
			fmt.Fprintf(os.Stderr, "wormsimd: gc %s: %v\n", j.id, err)
		}
		s.gcRemoved.Add(1)
	}
	if len(expired) == 0 {
		return
	}
	s.mu.Lock()
	for _, j := range expired {
		// A canceled-while-queued job may still sit in the heap; the
		// executor skips non-queued entries, so dropping it from the
		// table here is safe.
		delete(s.jobs, j.id)
	}
	s.mu.Unlock()
}

// sweepStuck is the watchdog: a running job whose engines have not
// ticked within StuckAfter is cancelled. The settle path in runJob then
// classifies it via Job.stuck — failed, or re-enqueued to resume from
// its checkpoints when StuckRequeue is set.
func (s *Server) sweepStuck(now time.Time) {
	if s.cfg.StuckAfter <= 0 {
		return
	}
	s.mu.Lock()
	var cancels []context.CancelFunc
	for _, j := range s.jobs {
		if j.state != StateRunning || j.stuck {
			continue
		}
		beat := j.lastBeat.Load()
		if beat == 0 || now.Sub(time.Unix(0, beat)) < s.cfg.StuckAfter {
			continue
		}
		j.stuck = true
		s.watchdogStuck.Add(1)
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// janitor periodically runs the TTL garbage collector and the stuck-job
// watchdog until the server closes. Started by New only when TTL or
// StuckAfter enables it.
func (s *Server) janitor() {
	defer s.wg.Done()
	interval := s.cfg.GCInterval
	if s.cfg.StuckAfter > 0 && s.cfg.StuckAfter < interval {
		// The watchdog must sample at least as often as its deadline or
		// a stuck job waits up to GCInterval extra.
		interval = s.cfg.StuckAfter
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			s.gcExpired(now)
			s.sweepStuck(now)
		}
	}
}
