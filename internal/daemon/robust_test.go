package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestScrubQuarantinesCorruptArtifacts hand-damages a data directory
// the way safeio never would — truncated JSON, garbage checkpoints,
// stray temp debris, a half-created job dir — and requires the restart
// to come up serving: healthy jobs intact, damaged artifacts moved to
// quarantine/ with structured sidecar errors, and the job with only a
// bad checkpoint re-run to completion rather than failed.
func TestScrubQuarantinesCorruptArtifacts(t *testing.T) {
	dataDir := t.TempDir()
	healthyDir := runLifecycle(t, dataDir)
	specBytes, err := os.ReadFile(filepath.Join(healthyDir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	jobsDir := filepath.Join(dataDir, "jobs")
	mkJob := func(id string, rec jobRecord, spec []byte) string {
		dir := filepath.Join(jobsDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if rec.ID != "" {
			data, _ := json.Marshal(rec)
			if err := os.WriteFile(filepath.Join(dir, "job.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if spec != nil {
			if err := os.WriteFile(filepath.Join(dir, "spec.json"), spec, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	// j000002: torn job.json (truncated mid-document).
	dir2 := mkJob("j000002", jobRecord{}, nil)
	os.WriteFile(filepath.Join(dir2, "job.json"), []byte(`{"id": "j0000`), 0o644)
	// j000003: sound job.json, corrupt spec.json.
	mkJob("j000003", jobRecord{ID: "j000003", State: StateDone, PointsTotal: 1},
		[]byte("not a spec"))
	// j000004: created but never populated (crash inside Submit).
	mkJob("j000004", jobRecord{}, nil)
	// j000005: interrupted mid-run with a garbage checkpoint — the
	// checkpoint alone is quarantined and the job re-runs from scratch.
	dir5 := mkJob("j000005", jobRecord{ID: "j000005", State: StateRunning, PointsTotal: 1}, specBytes)
	ckptDir := filepath.Join(dir5, "checkpoints", "point-000")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	badCkpt := filepath.Join(ckptDir, "replica-000.ckpt")
	os.WriteFile(badCkpt, []byte("garbage snapshot"), 0o644)
	// Temp debris from an interrupted safeio commit.
	debris := filepath.Join(healthyDir, ".job.json.tmp-12345")
	os.WriteFile(debris, []byte("partial"), 0o644)

	srv, err := New(Config{DataDir: dataDir, CheckpointEvery: crashCheckpointEvery})
	if err != nil {
		t.Fatalf("restart over damaged data dir: %v", err)
	}
	defer srv.Close()

	// Healthy job untouched, damaged siblings gone from the table.
	if st, _ := jobState(srv, "j000001"); st != StateDone {
		t.Fatalf("healthy job state after scrub = %q, want done", st)
	}
	for _, id := range []string{"j000002", "j000003", "j000004"} {
		if st, _ := jobState(srv, id); st != "" {
			t.Fatalf("damaged job %s still in table (state %q)", id, st)
		}
	}
	// The bad-checkpoint job resumed (from scratch) and completes.
	waitDone(t, srv, "j000005", 30*time.Second)

	// Quarantine holds the two damaged dirs plus the bad checkpoint,
	// each with a sidecar note.
	qdir := filepath.Join(dataDir, "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var artifacts, notes int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".error.json") {
			notes++
			data, err := os.ReadFile(filepath.Join(qdir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var note struct{ Artifact, Reason, Time string }
			if err := json.Unmarshal(data, &note); err != nil {
				t.Fatalf("sidecar %s not structured: %v", e.Name(), err)
			}
			if note.Artifact == "" || note.Reason == "" || note.Time == "" {
				t.Fatalf("sidecar %s incomplete: %+v", e.Name(), note)
			}
		} else {
			artifacts++
		}
	}
	if artifacts != 3 || notes != 3 {
		t.Fatalf("quarantine holds %d artifacts + %d notes, want 3 + 3 (%v)", artifacts, notes, ents)
	}
	if got := srv.quarantined.Load(); got != 3 {
		t.Fatalf("quarantined counter = %d, want 3", got)
	}
	if got := srv.tempCleaned.Load(); got < 1 {
		t.Fatalf("tempCleaned counter = %d, want >= 1", got)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("temp debris survived the scrub")
	}
	if _, err := os.Stat(filepath.Join(jobsDir, "j000004")); !os.IsNotExist(err) {
		t.Fatal("empty half-created job dir survived the scrub")
	}
	if _, err := os.Stat(badCkpt); !os.IsNotExist(err) {
		t.Fatal("garbage checkpoint left in place")
	}

	// Degraded, but serving.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]string
	json.NewDecoder(hr.Body).Decode(&health)
	if hr.StatusCode != http.StatusOK || health["status"] != "degraded" {
		t.Fatalf("healthz after scrub = %d %q, want 200 degraded", hr.StatusCode, health["status"])
	}
	rr, err := http.Get(ts.URL + "/jobs/j000001/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("healthy job's result not served after scrub: %d", rr.StatusCode)
	}
}

// TestWatchdogFailsStuckJob: a running job with no tick progress past
// StuckAfter is cancelled and settles failed with a watchdog error.
// Stuckness is simulated by sweeping with a far-future clock — the
// engine is healthy but its heartbeat is "old" relative to it.
func TestWatchdogFailsStuckJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{StuckAfter: time.Hour})
	v := submit(t, ts.URL, testSpec("wedge", 20, 1_000_000, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateRunning, 10*time.Second)

	srv.sweepStuck(time.Now().Add(2 * time.Hour))

	waitSettled(t, srv, v.ID, 15*time.Second)
	st, jerr := jobState(srv, v.ID)
	if st != StateFailed || !strings.Contains(jerr, "watchdog") {
		t.Fatalf("stuck job settled %s (%q), want failed with a watchdog error", st, jerr)
	}
	if got := srv.watchdogStuck.Load(); got != 1 {
		t.Fatalf("watchdogStuck = %d, want 1", got)
	}
	// Persisted verbatim: a restart must not resurrect a watchdog kill.
	data, err := os.ReadFile(filepath.Join(srv.jobsDir, v.ID, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateFailed || rec.Settled == "" {
		t.Fatalf("persisted record = %+v, want failed with a settled timestamp", rec)
	}
}

// TestWatchdogRequeuesStuckJob: with StuckRequeue, the kill becomes a
// re-enqueue and the job runs again instead of failing.
func TestWatchdogRequeuesStuckJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{StuckAfter: time.Hour, StuckRequeue: true})
	v := submit(t, ts.URL, testSpec("wedge", 20, 1_000_000, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateRunning, 10*time.Second)

	srv.sweepStuck(time.Now().Add(2 * time.Hour))

	// The job must come back: queued by the settle path, then running
	// again under a fresh heartbeat.
	deadline := time.Now().Add(15 * time.Second)
	for srv.watchdogRequeues.Load() == 0 {
		if time.Now().After(deadline) {
			st, jerr := jobState(srv, v.ID)
			t.Fatalf("stuck job never re-enqueued (state %s, err %q)", st, jerr)
		}
		time.Sleep(time.Millisecond)
	}
	waitJobState(t, ts.URL, v.ID, StateRunning, 15*time.Second)
	if err := srv.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, srv, v.ID, 15*time.Second)
}

// TestTTLGarbageCollection: settled jobs age out — directory removed,
// job gone from the table — while the janitor runs on its own clock.
func TestTTLGarbageCollection(t *testing.T) {
	srv, ts := newTestServer(t, Config{TTL: 50 * time.Millisecond, GCInterval: 10 * time.Millisecond})
	v := submit(t, ts.URL, testSpec("ttl", 10, 5, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateDone, 10*time.Second)

	// The settled timestamp is durable (it is the GC clock).
	dir := filepath.Join(srv.jobsDir, v.ID)
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Settled == "" {
		t.Fatal("done job persisted without a settled timestamp")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := jobState(srv, v.ID); st == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("settled job never garbage-collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("job dir survived GC (stat err %v)", err)
	}
	if got := srv.gcRemoved.Load(); got < 1 {
		t.Fatalf("gcRemoved = %d, want >= 1", got)
	}
	// 404 after GC, and a fresh submission still works.
	gr, err := http.Get(ts.URL + "/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Fatalf("GC'd job GET = %d, want 404", gr.StatusCode)
	}
	w := submit(t, ts.URL, testSpec("ttl2", 10, 5, 1, ""), "")
	waitJobState(t, ts.URL, w.ID, StateDone, 10*time.Second)
}

// TestTTLGarbageCollectionMidCollection: a request that arrives while
// the collector removes a job's directory answers 404, never 500 —
// both once the job is marked collecting and when the directory
// vanished between the lookup and the read.
func TestTTLGarbageCollectionMidCollection(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	v := submit(t, ts.URL, testSpec("midgc", 10, 5, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateDone, 10*time.Second)
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if err := os.RemoveAll(filepath.Join(srv.jobsDir, v.ID)); err != nil {
		t.Fatal(err)
	}
	if got := status("/jobs/" + v.ID + "/result"); got != http.StatusNotFound {
		t.Errorf("result with its directory gone = %d, want 404", got)
	}

	srv.mu.Lock()
	srv.jobs[v.ID].collecting = true
	srv.mu.Unlock()
	for _, path := range []string{"/jobs/" + v.ID, "/jobs/" + v.ID + "/result"} {
		if got := status(path); got != http.StatusNotFound {
			t.Errorf("GET %s mid-collection = %d, want 404", path, got)
		}
	}
}

// TestDrainLeavesResumableState pins the graceful-drain contract: after
// Close, the HTTP side still answers — health reports draining with
// 503, submissions bounce with 503 — and the interrupted job's disk
// state is resumable: record still "running", with a verified
// checkpoint at the tick boundary the engine stopped on.
func TestDrainLeavesResumableState(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	v := submit(t, ts.URL, testSpec("drain", 150, 1_000_000, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateRunning, 10*time.Second)
	// Let the engine tick before draining, so the cancellation-boundary
	// checkpoint has progress to save.
	j := srv.lookup(v.ID)
	start := j.lastBeat.Load()
	deadline := time.Now().Add(10 * time.Second)
	for j.lastBeat.Load() == start {
		if time.Now().After(deadline) {
			t.Fatal("engine never ticked")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Close()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]string
	json.NewDecoder(hr.Body).Decode(&health)
	if hr.StatusCode != http.StatusServiceUnavailable || health["status"] != "draining" {
		t.Fatalf("healthz during drain = %d %q, want 503 draining", hr.StatusCode, health["status"])
	}
	pr, err := http.Post(ts.URL+"/jobs", "application/json",
		bytes.NewReader(testSpec("late", 10, 5, 1, "")))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", pr.StatusCode)
	}

	data, err := os.ReadFile(filepath.Join(srv.jobsDir, v.ID, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning {
		t.Fatalf("drained job persisted as %q, want running (resumable)", rec.State)
	}
	ckpt := filepath.Join(srv.jobsDir, v.ID, "checkpoints", "point-000", "replica-000.ckpt")
	snap, err := sim.ReadSnapshot(ckpt)
	if err != nil {
		t.Fatalf("no verified checkpoint after drain: %v", err)
	}
	if snap.NextTick <= 0 {
		t.Fatalf("drain checkpoint at tick %d, want > 0", snap.NextTick)
	}
}

// TestCancelRacesSettlement fires DELETE at jobs that are about to
// finish on their own: whatever interleaving wins, the API answers 202
// or 409, the job settles exactly once, and the daemon stays
// consistent.
func TestCancelRacesSettlement(t *testing.T) {
	srv, ts := newTestServer(t, Config{Executors: 2})
	quick := testSpec("race", 10, 5, 1, "")
	for i := 0; i < 20; i++ {
		v := submit(t, ts.URL, quick, "")
		// Stagger the cancel across the whole lifecycle: immediate on
		// some rounds, mid-run or post-done on others.
		time.Sleep(time.Duration(i%5) * 2 * time.Millisecond)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
		dr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
		if dr.StatusCode != http.StatusAccepted && dr.StatusCode != http.StatusConflict {
			t.Fatalf("round %d: DELETE = %d, want 202 or 409", i, dr.StatusCode)
		}
		waitSettled(t, srv, v.ID, 15*time.Second)
		st, jerr := jobState(srv, v.ID)
		if st != StateDone && st != StateCanceled {
			t.Fatalf("round %d: raced job settled %s (%q)", i, st, jerr)
		}
		// A done job must have its result regardless of the race.
		if st == StateDone {
			if _, err := os.Stat(filepath.Join(srv.jobsDir, v.ID, "result.json")); err != nil {
				t.Fatalf("round %d: done job without result: %v", i, err)
			}
		}
	}
}

// TestRestartFreshAndEmptyDataDirs: a daemon must start over a data dir
// that does not exist yet, one that exists but is empty, and one whose
// jobs were all GC'd away (empty jobs/ plus a leftover quarantine/).
func TestRestartFreshAndEmptyDataDirs(t *testing.T) {
	nested := filepath.Join(t.TempDir(), "deep", "fresh")
	srv, err := New(Config{DataDir: nested})
	if err != nil {
		t.Fatalf("fresh nested data dir: %v", err)
	}
	j, err := srv.Submit(testSpec("fresh", 10, 5, 1, ""), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, j.id, 10*time.Second)
	srv.Close()

	emptied := t.TempDir()
	if err := os.MkdirAll(filepath.Join(emptied, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(emptied, "quarantine"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{DataDir: emptied})
	if err != nil {
		t.Fatalf("emptied data dir: %v", err)
	}
	defer srv2.Close()
	j2, err := srv2.Submit(testSpec("fresh2", 10, 5, 1, ""), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv2, j2.id, 10*time.Second)
}

// TestRestartLoadsLegacySpec: a data dir written by an older build
// holds specs carrying retired run knobs — run.structural_threshold
// (from when routing had two modes) or run.workers (from when one
// replica's ticks could be sharded). The restart scrub must accept them
// — the key decodes and is ignored — the queued job must run to
// completion, not be quarantined, and a second restart must reload the
// finished job cleanly.
func TestRestartLoadsLegacySpec(t *testing.T) {
	for _, tc := range []struct{ name, knob string }{
		{"structural_threshold", `"structural_threshold": 4096`},
		{"workers", `"workers": 2`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := t.TempDir()
			dir := filepath.Join(dataDir, "jobs", "j000001")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			rec, _ := json.Marshal(jobRecord{ID: "j000001", State: StateQueued, PointsTotal: 1})
			if err := os.WriteFile(filepath.Join(dir, "job.json"), rec, 0o644); err != nil {
				t.Fatal(err)
			}
			legacy := `{
  "format": "wormsim-scenario",
  "version": 1,
  "name": "legacy",
  "topology": {"kind": "star", "nodes": 10},
  "worm": {"kind": "random", "beta": 0.5},
  "ticks": 5,
  "seed": 7,
  "run": {"runs": 1, "jobs": 1, ` + tc.knob + `}
}`
			if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(legacy), 0o644); err != nil {
				t.Fatal(err)
			}

			srv, err := New(Config{DataDir: dataDir})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, srv, "j000001", 10*time.Second)
			srv.Close()

			srv, err = New(Config{DataDir: dataDir})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if st, jerr := jobState(srv, "j000001"); st != StateDone {
				t.Fatalf("reloaded job state %s (%s), want done", st, jerr)
			}
			if got := srv.quarantined.Load(); got != 0 {
				t.Fatalf("quarantined counter = %d, want 0", got)
			}
			if _, err := os.Stat(filepath.Join(dataDir, "quarantine")); !os.IsNotExist(err) {
				t.Fatalf("quarantine dir exists after loading a legacy spec (stat err %v)", err)
			}
		})
	}
}

// TestBrokerCountsSlowSubscriberDrops: a subscriber that never reads is
// disconnected once its buffer fills, and the drop is counted for
// /stats.
func TestBrokerCountsSlowSubscriberDrops(t *testing.T) {
	b := newBroker(16)
	_, live, stop := b.subscribe()
	defer stop()
	for i := 0; i < subBuffer+2; i++ {
		b.publish(StreamRecord{Type: "tick"})
	}
	if got := b.dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	// The channel was closed at the drop; drain to the close marker.
	n := 0
	for range live {
		n++
	}
	if n != subBuffer {
		t.Fatalf("slow subscriber received %d records, want the %d buffered", n, subBuffer)
	}
}
