package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// maxSpecBytes bounds a submitted spec body. Specs are small
// declarative documents; anything larger is a client error.
const maxSpecBytes = 1 << 20

// JobView is the JSON representation of a job over the HTTP API.
type JobView struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	State       string `json:"state"`
	Priority    int    `json:"priority"`
	PointsTotal int    `json:"points_total"`
	PointsDone  int    `json:"points_done"`
	Error       string `json:"error,omitempty"`
	Submitted   string `json:"submitted,omitempty"`
	// Live batch progress of the current grid point, present while the
	// job runs.
	Ticks     int64 `json:"ticks,omitempty"`
	Completed int   `json:"completed,omitempty"`
	Runs      int   `json:"runs,omitempty"`
}

// ServerStats is the /stats payload.
type ServerStats struct {
	Jobs      map[string]int `json:"jobs"`
	Queued    int            `json:"queued"`
	Executors int            `json:"executors"`
	QueueCap  int            `json:"queue_cap"`
	// QueueHighWater is the deepest the queue has been since startup —
	// the sizing signal for QueueCap.
	QueueHighWater int `json:"queue_high_water"`
	// StreamDrops counts subscribers disconnected for falling behind a
	// job's progress stream (summed over the jobs still in the table).
	StreamDrops int64              `json:"stream_drops"`
	NetCache    spec.NetCacheStats `json:"net_cache"`
	Robustness  RobustnessStats    `json:"robustness"`
}

// RobustnessStats are the self-healing counters: what the scrubber,
// janitor, and watchdog have done since startup, and how the daemon has
// degraded under disk pressure.
type RobustnessStats struct {
	Quarantined      int64 `json:"quarantined"`
	TempCleaned      int64 `json:"temp_cleaned"`
	GCRemoved        int64 `json:"gc_removed"`
	CheckpointSkips  int64 `json:"checkpoint_skips"`
	PersistErrors    int64 `json:"persist_errors"`
	WatchdogStuck    int64 `json:"watchdog_stuck"`
	WatchdogRequeues int64 `json:"watchdog_requeues"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs            submit a spec (JSON or YAML body; ?priority=N)
//	GET    /jobs            list jobs
//	GET    /jobs/{id}        one job's state
//	DELETE /jobs/{id}        cancel a job
//	GET    /jobs/{id}/stream progress stream (JSONL; SSE on Accept or ?sse=1)
//	GET    /jobs/{id}/result result.json of a finished job
//	GET    /stats            scheduler + topology-cache counters
//	GET    /healthz          liveness probe
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the liveness/readiness probe. "ok" is healthy;
// "degraded" means the daemon is serving but has quarantined artifacts,
// shed checkpoints, or failed persists worth an operator's look (still
// 200 — degraded is an alert, not an outage); "draining" (503) means
// Close has begun and new submissions are being rejected.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	degraded := s.quarantined.Load() > 0 || s.checkpointSkips.Load() > 0 ||
		s.persistErrors.Load() > 0 || s.watchdogStuck.Load() > 0
	if degraded {
		status = "degraded"
	}
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	priority := 0
	if p := r.URL.Query().Get("priority"); p != "" {
		v, err := strconv.Atoi(p)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("priority %q: %w", p, err))
			return
		}
		priority = v
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec exceeds %d bytes", maxSpecBytes))
		return
	}
	j, err := s.Submit(body, priority)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Jittered so a herd of 429'd clients doesn't retry in lockstep
		// and slam the queue again on the same second.
		w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(4)))
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(w, http.StatusCreated, s.view(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if !j.collecting {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, s.view(j))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.Cancel(id)
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrFinished):
		httpError(w, http.StatusConflict, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(s.lookup(id)))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != StateDone {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("daemon: job %s is %s; result exists only for done jobs", j.id, state))
		return
	}
	data, err := os.ReadFile(filepath.Join(j.dir, "result.json"))
	if errors.Is(err, fs.ErrNotExist) {
		// The TTL garbage collector removed the job after lookup.
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleStream replays a job's record history and then follows the live
// stream until the job reaches a terminal state or the client goes
// away. Content negotiation: JSONL by default, server-sent events when
// the client asks (Accept: text/event-stream, or ?sse=1 for curl
// convenience).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	write := func(rec StreamRecord) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		return err
	}

	history, live, stop := j.broker.subscribe()
	defer stop()
	for _, rec := range history {
		if write(rec) != nil {
			return
		}
	}
	flush()
	if live == nil {
		return // stream already ended; history included the terminal record
	}
	for {
		select {
		case rec, ok := <-live:
			if !ok {
				return // terminal record delivered (or subscriber dropped)
			}
			if write(rec) != nil {
				return
			}
			// Flush opportunistically: drain whatever is already queued
			// before paying the flush, so a fast producer doesn't force
			// a syscall per tick.
			if len(live) == 0 {
				flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := ServerStats{
		Jobs:           make(map[string]int),
		Queued:         s.queuedCount,
		Executors:      s.cfg.Executors,
		QueueCap:       s.cfg.QueueCap,
		QueueHighWater: s.queueHighWater,
	}
	for _, j := range s.jobs {
		st.Jobs[j.state]++
		st.StreamDrops += j.broker.dropped()
	}
	s.mu.Unlock()
	st.NetCache = s.cache.Stats()
	st.Robustness = RobustnessStats{
		Quarantined:      s.quarantined.Load(),
		TempCleaned:      s.tempCleaned.Load(),
		GCRemoved:        s.gcRemoved.Load(),
		CheckpointSkips:  s.checkpointSkips.Load(),
		PersistErrors:    s.persistErrors.Load(),
		WatchdogStuck:    s.watchdogStuck.Load(),
		WatchdogRequeues: s.watchdogRequeues.Load(),
	}
	writeJSON(w, http.StatusOK, st)
}

// lookup returns the job by id, or nil when there is none or the
// garbage collector is removing it.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && !j.collecting {
		return j
	}
	return nil
}

// view snapshots a job into its API representation.
func (s *Server) view(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Name:        j.name,
		State:       j.state,
		Priority:    j.priority,
		PointsTotal: j.pointsTotal,
		PointsDone:  j.pointsDone,
		Error:       j.err,
		Submitted:   j.submitted,
	}
	if v.State == StateRunning {
		v.Ticks = j.lastStats.Ticks
		v.Completed = j.lastStats.Completed
		v.Runs = j.lastStats.Runs
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
