package daemon

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// testSpec renders a small scenario spec with the given shape. extra is
// spliced into the document verbatim (e.g. a grid clause).
func testSpec(name string, nodes, ticks, runs int, extra string) []byte {
	return []byte(fmt.Sprintf(`{
  "format": "wormsim-scenario",
  "version": 1,
  "name": %q,
  "topology": {"kind": "star", "nodes": %d},
  "worm": {"kind": "random", "beta": 0.5},
  "ticks": %d,
  "seed": 7,
  "run": {"runs": %d, "jobs": 1}%s
}`, name, nodes, ticks, runs, extra))
}

// newTestServer starts a daemon over a fresh temp dir and its HTTP
// front end, with cleanup registered.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, base string, spec []byte, query string) JobView {
	t.Helper()
	resp, err := http.Post(base+"/jobs"+query, "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d (%v)", resp.StatusCode, e)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJob(t *testing.T, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitJobState polls until the job reaches want (fatal on a terminal
// state that isn't want, or on timeout).
func waitJobState(t *testing.T, base, id, want string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		if v.State == want {
			return v
		}
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("job %s settled as %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonJobRoundTrip drives the full happy path over HTTP: submit a
// two-point grid, follow the JSONL stream to completion, fetch the
// result document, and check the job listing.
func TestDaemonJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{CheckpointEvery: 50})
	doc := testSpec("roundtrip", 40, 60, 2,
		`,
  "grid": [{"path": "worm.beta", "values": [0.3, 0.6]}]`)
	v := submit(t, ts.URL, doc, "")
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %q", v.State)
	}
	if v.PointsTotal != 2 {
		t.Fatalf("points_total = %d, want 2", v.PointsTotal)
	}

	// The stream ends when the job does; read it to EOF.
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "jsonl") {
		t.Fatalf("stream content type = %q, want jsonl", ct)
	}
	var ticks, points int
	var last StreamRecord
	var lastSeq uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("stream seq not increasing: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		switch rec.Type {
		case "tick":
			ticks++
			if rec.Tick == nil {
				t.Fatal("tick record without payload")
			}
		case "point":
			points++
		}
		last = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("stream carried no tick records")
	}
	if points != 2 {
		t.Fatalf("stream carried %d point records, want 2", points)
	}
	if last.Type != "job" || last.State != StateDone {
		t.Fatalf("terminal record = %+v, want job/done", last)
	}

	// Result document.
	rr, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", rr.StatusCode)
	}
	var doc2 resultDoc
	if err := json.NewDecoder(rr.Body).Decode(&doc2); err != nil {
		t.Fatal(err)
	}
	if doc2.Name != "roundtrip" || len(doc2.Points) != 2 {
		t.Fatalf("result = %q with %d points, want roundtrip with 2", doc2.Name, len(doc2.Points))
	}
	for _, p := range doc2.Points {
		if len(p.Infected) == 0 || p.Error != "" {
			t.Fatalf("point %s: error=%q series=%d", p.Name, p.Error, len(p.Infected))
		}
	}

	// Listing and final job state.
	final := waitJobState(t, ts.URL, v.ID, StateDone, 5*time.Second)
	if final.PointsDone != 2 {
		t.Fatalf("points_done = %d, want 2", final.PointsDone)
	}
	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var list []JobView
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("listing = %+v, want exactly the submitted job", list)
	}
}

// TestDaemonSSEStream: the same stream negotiates server-sent events.
func TestDaemonSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts.URL, testSpec("sse", 20, 20, 1, ""), "")
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		var rec StreamRecord
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("no SSE frames")
	}
}

// TestDaemonBackpressure: with a single busy executor and a queue of
// one, the second waiting submission bounces with 429 and a Retry-After
// hint; cancels then drain both live jobs.
func TestDaemonBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueCap: 1, Executors: 1})
	// Slow enough to still be running when the probes land.
	slow := testSpec("slow", 20, 1_000_000, 1, "")
	a := submit(t, ts.URL, slow, "")
	waitJobState(t, ts.URL, a.ID, StateRunning, 10*time.Second)
	b := submit(t, ts.URL, slow, "") // fills the queue

	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 || n > 4 {
		t.Fatalf("Retry-After = %q, want a jittered 1..4 seconds", ra)
	}

	// The rejected burst is visible in the sizing stats.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QueueHighWater < 1 {
		t.Fatalf("queue_high_water = %d, want >= 1", st.QueueHighWater)
	}

	// Cancel the queued job: settles immediately, frees the queue slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+b.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d", dr.StatusCode)
	}
	if v := getJob(t, ts.URL, b.ID); v.State != StateCanceled {
		t.Fatalf("queued job after cancel: %q", v.State)
	}
	// A slot is free again.
	c := submit(t, ts.URL, slow, "")

	// Cancel the running job; it winds down asynchronously.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+a.ID, nil)
	dr, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for getJob(t, ts.URL, a.ID).State != StateCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("running job never settled canceled: %+v", getJob(t, ts.URL, a.ID))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the follow-up job too, so Close doesn't wait on a long run.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+c.ID, nil)
	dr, _ = http.DefaultClient.Do(req)
	if dr != nil {
		dr.Body.Close()
	}
}

// TestDaemonNetCacheShared pins the acceptance criterion on topology
// reuse: two jobs over the same topology build its net state exactly
// once, the second served from the shared cache — with byte-identical
// results.
func TestDaemonNetCacheShared(t *testing.T) {
	_, ts := newTestServer(t, Config{Executors: 1})
	doc := testSpec("cached", 50, 30, 2, "")
	a := submit(t, ts.URL, doc, "")
	b := submit(t, ts.URL, doc, "")
	waitJobState(t, ts.URL, a.ID, StateDone, 15*time.Second)
	waitJobState(t, ts.URL, b.ID, StateDone, 15*time.Second)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.NetCache.Builds != 1 {
		t.Fatalf("net cache builds = %d, want 1 (second job must reuse the first's topology)", st.NetCache.Builds)
	}
	if st.NetCache.Hits < 1 {
		t.Fatalf("net cache hits = %d, want >= 1", st.NetCache.Hits)
	}
	if st.Jobs[StateDone] != 2 {
		t.Fatalf("jobs done = %d, want 2", st.Jobs[StateDone])
	}

	ra, err := http.Get(ts.URL + "/jobs/" + a.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Body.Close()
	rb, err := http.Get(ts.URL + "/jobs/" + b.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Body.Close()
	ba, _ := io.ReadAll(ra.Body)
	bb, _ := io.ReadAll(rb.Body)
	if !bytes.Equal(ba, bb) {
		t.Fatal("identical specs produced different result documents")
	}
}

// TestServerRestartResume is the graceful half of the restart story: a
// daemon closed mid-job leaves its checkpoints and a "running" record
// behind; a new daemon over the same data dir re-enqueues the job,
// resumes from the checkpoints, and the final result.json is
// byte-identical to an uninterrupted run's.
func TestServerRestartResume(t *testing.T) {
	dataDir := t.TempDir()
	doc := testSpec("resume", 150, 20000, 2, "")
	cfg := Config{DataDir: dataDir, CheckpointEvery: 100}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first engine checkpoint is durably on disk, then
	// stop the daemon mid-run.
	ckptDir := filepath.Join(j.dir, "checkpoints", "point-000")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if ents, err := os.ReadDir(ckptDir); err == nil && len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s1.Close()
	if _, err := os.Stat(filepath.Join(j.dir, "result.json")); !os.IsNotExist(err) {
		t.Fatalf("interrupted job must not have a result.json (stat err %v)", err)
	}
	var rec jobRecord
	data, err := os.ReadFile(filepath.Join(j.dir, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(data, &rec); rec.State != StateRunning {
		t.Fatalf("persisted state after shutdown = %q, want running", rec.State)
	}

	// Restart over the same data dir: the job resumes and completes.
	_, ts2 := newTestServer(t, cfg)
	waitJobState(t, ts2.URL, j.id, StateDone, 60*time.Second)
	resumed, err := os.ReadFile(filepath.Join(j.dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(j.dir, "checkpoints")); !os.IsNotExist(err) {
		t.Fatal("checkpoints not cleaned up after completion")
	}

	// Control: the same spec, uninterrupted, on a fresh daemon.
	_, ts3 := newTestServer(t, Config{CheckpointEvery: 100})
	cv := submit(t, ts3.URL, doc, "")
	waitJobState(t, ts3.URL, cv.ID, StateDone, 60*time.Second)
	rr, err := http.Get(ts3.URL + "/jobs/" + cv.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	control, _ := io.ReadAll(rr.Body)

	if !bytes.Equal(resumed, control) {
		t.Fatalf("resumed result diverged from uninterrupted run:\nresumed %d bytes\ncontrol %d bytes", len(resumed), len(control))
	}
}

// TestRestartCountsPointsWithoutCompiling: reloading a persisted job
// needs only its grid-point count, which Spec.Points takes from the
// axis lengths. Restarting over a settled job with a ~100k-host point
// must allocate less than generating that point's graph once — it
// must not compile (and so materialize) the point.
func TestRestartCountsPointsWithoutCompiling(t *testing.T) {
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "jobs", "j000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	doc := `{
  "format": "wormsim-scenario",
  "version": 1,
  "topology": {"kind": "twolevel", "ases": 400, "attach_m": 2, "transit_fraction": 0.05, "hosts_per_stub": 264},
  "worm": {"kind": "random", "beta": 0.8}
}`
	rec, _ := json.Marshal(jobRecord{ID: "j000001", State: StateDone, PointsTotal: 1, PointsDone: 1})
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var s *Server
	restart := allocs(func() {
		var err error
		if s, err = New(Config{DataDir: dataDir}); err != nil {
			t.Fatal(err)
		}
	})
	defer s.Close()
	build := allocs(func() {
		_, _, _, err := topology.TwoLevel(topology.TwoLevelConfig{
			ASes: 400, AttachM: 2, TransitFraction: 0.05, HostsPerStub: 264,
		}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
	})
	if restart >= build {
		t.Errorf("restart allocated %d bytes, one materialization %d: the settled job was compiled", restart, build)
	}
	if j := s.jobs["j000001"]; j == nil || j.pointsTotal != 1 || j.state != StateDone {
		t.Fatalf("reloaded job = %+v, want done with 1 point", j)
	}
}

// TestSubmitCompilesOnlyFirstPoint: Submit validates a grid by
// compiling its first point alone, so a 20-point topology_seed sweep
// over a ~100k-host graph is admitted at the cost of one
// materialization, not twenty.
func TestSubmitCompilesOnlyFirstPoint(t *testing.T) {
	doc := []byte(`{
  "format": "wormsim-scenario",
  "version": 1,
  "topology": {"kind": "twolevel", "ases": 400, "attach_m": 2, "transit_fraction": 0.05, "hosts_per_stub": 264},
  "worm": {"kind": "random", "beta": 0.8},
  "ticks": 1,
  "grid": [{"path": "topology_seed", "values": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]}]
}`)
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var oneTook time.Duration
	one := allocs(func() {
		defer func(start time.Time) { oneTook = time.Since(start) }(time.Now())
		ps, err := spec.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		pt, _, err := ps.Point(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pt.Compile(nil); err != nil {
			t.Fatal(err)
		}
	})
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var j *Job
	var took time.Duration
	submitted := allocs(func() {
		start := time.Now()
		j, err = s.Submit(doc, 0)
		took = time.Since(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.pointsTotal != 20 {
		t.Errorf("job has %d points, want 20", j.pointsTotal)
	}
	if submitted >= 2*one {
		t.Errorf("Submit allocated %d bytes, one point's compilation %d: it compiled more than the first point", submitted, one)
	}
	// The wall-clock bound is waived on a machine so slow (or so
	// instrumented) that one compilation alone takes a third of it.
	if took >= 100*time.Millisecond && took >= 3*oneTook {
		t.Errorf("Submit took %v, want < 100ms (one compilation took %v)", took, oneTook)
	}
}

// TestSubmitAcceptsLaterInvalidPoint: only the first grid point is
// checked at Submit, so a grid whose second value has the wrong type is
// accepted, and the job fails at that point, naming it.
func TestSubmitAcceptsLaterInvalidPoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts.URL, testSpec("typo", 10, 5, 1, `,
  "grid": [{"path": "worm.beta", "values": [0.5, "fast"]}]`), "")
	if v.PointsTotal != 2 {
		t.Fatalf("points_total %d, want 2", v.PointsTotal)
	}
	deadline := time.Now().Add(10 * time.Second)
	for v.State != StateFailed {
		if v.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("job state %s, want failed", v.State)
		}
		time.Sleep(10 * time.Millisecond)
		v = getJob(t, ts.URL, v.ID)
	}
	if want := "typo[worm.beta=fast]"; !strings.Contains(v.Error, want) {
		t.Errorf("job error %q does not name point %s", v.Error, want)
	}
}

// TestDaemonErrorPaths covers the HTTP error mapping.
func TestDaemonErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Garbage spec: 400.
	resp, _ := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage spec: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad priority: 400.
	resp, _ = http.Post(ts.URL+"/jobs?priority=high", "application/json",
		bytes.NewReader(testSpec("p", 10, 5, 1, "")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown job: 404 everywhere.
	for _, path := range []string{"/jobs/j999999", "/jobs/j999999/stream", "/jobs/j999999/result"} {
		resp, _ = http.Get(ts.URL + path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Result of an unfinished (canceled) job: 404. Cancel of a settled
	// job: 409.
	v := submit(t, ts.URL, testSpec("quick", 10, 5, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateDone, 10*time.Second)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	dr, _ := http.DefaultClient.Do(req)
	if dr.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: %d, want 409", dr.StatusCode)
	}
	dr.Body.Close()

	// Healthz.
	hr, _ := http.Get(ts.URL + "/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hr.StatusCode)
	}
	hr.Body.Close()
}

// TestDaemonRejectsHugeGrid: a spec under the 1 MB body limit whose
// three 100,000-value axes multiply to 10^15 points gets a 400, not a
// handler panic and a dropped connection, and the server keeps serving.
func TestDaemonRejectsHugeGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	values := strings.TrimSuffix(strings.Repeat("1,", 100_000), ",")
	grid := fmt.Sprintf(`,
  "grid": [{"path": "seed", "values": [%[1]s]},
           {"path": "ticks", "values": [%[1]s]},
           {"path": "run.runs", "values": [%[1]s]}]`, values)
	body := testSpec("huge", 10, 5, 1, grid)
	if len(body) > maxSpecBytes {
		t.Fatalf("spec is %d bytes, over the %d-byte body limit", len(body), maxSpecBytes)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "points") {
		t.Fatalf("huge grid: status %d (%s), want 400 naming the point cap", resp.StatusCode, msg)
	}
	v := submit(t, ts.URL, testSpec("after", 10, 5, 1, ""), "")
	waitJobState(t, ts.URL, v.ID, StateDone, 10*time.Second)
}

// postStatus submits body and returns the response status and message.
func postStatus(t *testing.T, base string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestDaemonRefusesTraceFiles: a trace path names a file on the
// daemon's host, so Submit refuses any spec that could replay one — a
// "trace" workload, or a grid axis on workload or workload.kind in any
// letter case — with a 400 naming the field, before a job directory
// exists. The trace file here is real and valid, so only the refusal
// keeps these specs out. Synthetic workloads are still accepted.
func TestDaemonRefusesTraceFiles(t *testing.T) {
	tr, err := trace.Generate(trace.GenConfig{Duration: 5 * trace.Second, Seed: 1, NormalClients: 4, Infected: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campus.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	traceWorkload := fmt.Sprintf(`,
  "workload": {"kind": "trace", "path": %q}`, path)
	synthetic := `,
  "workload": {"kind": "synthetic", "normal": 20, "infected": 2}`
	tests := []struct {
		name, extra, want string
	}{
		{"trace kind", traceWorkload, "workload.kind"},
		{"grid on workload.kind", synthetic + `,
  "grid": [{"path": "workload.kind", "values": ["synthetic"]}]`, "workload.kind"},
		{"grid on the workload", fmt.Sprintf(`,
  "grid": [{"path": "Workload", "values": [{"kind": "trace", "path": %q}]}]`, path), "Workload"},
	}
	s, ts := newTestServer(t, Config{})
	for _, tt := range tests {
		code, msg := postStatus(t, ts.URL, testSpec("refused", 40, 10, 1, tt.extra))
		if code != http.StatusBadRequest || !strings.Contains(msg, tt.want) {
			t.Errorf("%s: status %d (%s), want 400 naming %s", tt.name, code, msg, tt.want)
		}
	}
	if entries, err := os.ReadDir(s.jobsDir); err != nil || len(entries) != 0 {
		t.Fatalf("refused specs left job directories %v (err %v)", entries, err)
	}
	v := submit(t, ts.URL, testSpec("synthetic", 40, 10, 1, synthetic), "")
	waitJobState(t, ts.URL, v.ID, StateDone, 10*time.Second)
}

// TestDaemonRejectsUnrunnableWorkload: a workload that cannot run on
// its topology — more trace hosts than host nodes — is a 400 at
// Submit, not a job that fails later.
func TestDaemonRejectsUnrunnableWorkload(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, msg := postStatus(t, ts.URL, testSpec("oversized", 10, 10, 1, `,
  "workload": {"kind": "synthetic", "normal": 500, "infected": 3}`))
	if code != http.StatusBadRequest || !strings.Contains(msg, "503 trace hosts") {
		t.Fatalf("status %d (%s), want 400 naming the host count", code, msg)
	}
	if entries, err := os.ReadDir(s.jobsDir); err != nil || len(entries) != 0 {
		t.Fatalf("a refused spec left job directories %v (err %v)", entries, err)
	}
}

// TestJobQueueOrdering pins the scheduler's ordering contract: higher
// priority first, submission order within a priority.
func TestJobQueueOrdering(t *testing.T) {
	var q jobQueue
	push := func(seq, prio int) {
		heap.Push(&q, &Job{id: fmt.Sprintf("j%06d", seq), seq: seq, priority: prio, state: StateQueued})
	}
	push(1, 0)
	push(2, 5)
	push(3, 0)
	push(4, 5)
	var got []int
	for q.Len() > 0 {
		got = append(got, heap.Pop(&q).(*Job).seq)
	}
	want := []int{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}
