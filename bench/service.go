package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/spec"
)

// The service-sweep load: a closed loop of loadSize clients, each
// submitting its next job only after the previous one's result
// arrived. Every distinct spec is submitted twice, serviceSpecs jobs
// apart, and topology seeds cycle over serviceNets values so the
// daemon's net cache warms after serviceNets builds.
const (
	serviceJobs        = 200
	serviceSpecs       = serviceJobs / 2
	serviceNets        = 4
	serviceTicks       = 150
	serviceCheckpoints = 50
	// serviceSparseCheckpoints and serviceSparseJobs size the traced
	// pass's second daemon, whose run time against the first gives the
	// share of job time spent committing checkpoints.
	serviceSparseCheckpoints = 1000
	serviceSparseJobs        = 40
)

// serviceSpec is the i-th distinct job: a 2-point worm.beta grid × 2
// replicas × 150 ticks on a 1000-node power-law net with a backbone
// rate limit.
func serviceSpec(seed int64, i int) *spec.Spec {
	return &spec.Spec{
		Format: spec.Format, Version: spec.Version, Name: fmt.Sprintf("sweep-%03d", i),
		Topology: spec.Topology{Kind: "powerlaw", Nodes: 1000},
		Worm:     spec.Worm{Kind: "random", Beta: 0.8},
		Defenses: []spec.Defense{{Kind: "backbone", Rate: 0.4}},
		Ticks:    serviceTicks,
		Seed:     seed*serviceSpecs + int64(i) + 1,
		// The same nets for every seed, like internet-1m's graph.
		TopologySeed: int64(i%serviceNets) + 1,
		Run:          &spec.Run{Runs: 2, Jobs: 1},
		Grid: []spec.Axis{{Path: "worm.beta", Values: []json.RawMessage{
			json.RawMessage("0.4"), json.RawMessage("0.8"),
		}}},
	}
}

func serviceBodies(seed int64) ([][]byte, error) {
	bodies := make([][]byte, serviceSpecs)
	for i := range bodies {
		var err error
		if bodies[i], err = serviceSpec(seed, i).Canonical(); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// jobOutcome is one job as its client saw it. The phases split the
// latency at the stream's lifecycle records.
type jobOutcome struct {
	spec                           int
	latency                        float64
	submit, queueWait, run, result float64
	records, streamBytes           int
	packets                        int64
	backlogPeak                    int
	refused                        bool
	doc                            []byte
	err                            error
}

// streamLine is the part of a stream record the client reads.
type streamLine struct {
	Type  string `json:"type"`
	State string `json:"state"`
	Error string `json:"error"`
	Tick  *struct {
		PacketsGenerated int `json:"packets_generated"`
		Backlog          int `json:"backlog"`
	} `json:"tick"`
}

// sweep runs the closed loop against the daemon at base and returns
// every job's outcome, in submission order, with the loop's wall time.
// With a recorder it also records each job's phases as spans.
func sweep(ctx context.Context, base string, bodies [][]byte, jobs int, rec *recorder) ([]jobOutcome, float64) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: loadSize, MaxIdleConnsPerHost: loadSize}}
	defer client.CloseIdleConnections()
	out := make([]jobOutcome, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < loadSize; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= jobs || ctx.Err() != nil {
					return
				}
				out[k] = runJob(ctx, client, base, bodies, k%len(bodies), rec)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// runJob submits one spec, follows its stream to the end, and fetches
// its result.
func runJob(ctx context.Context, client *http.Client, base string, bodies [][]byte, i int, rec *recorder) jobOutcome {
	o := jobOutcome{spec: i}
	t0 := time.Now()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(bodies[i]))
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	var view daemon.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.refused, o.err = true, errors.New("submit refused: queue full")
		return o
	case resp.StatusCode != http.StatusCreated:
		o.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return o
	case err != nil:
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	t1 := time.Now()

	tRun, tEnd, state, err := follow(ctx, client, base+"/jobs/"+view.ID+"/stream", &o)
	if err != nil {
		o.err = err
		return o
	}
	if state != daemon.StateDone {
		o.err = fmt.Errorf("job %s ended %s", view.ID, state)
		return o
	}
	o.doc, err = get(ctx, client, base+"/jobs/"+view.ID+"/result")
	if err != nil {
		o.err = err
		return o
	}
	t2 := time.Now()
	if tRun.IsZero() {
		tRun = t1 // the stream history had already dropped the running record
	}
	o.latency = t2.Sub(t0).Seconds()
	o.submit, o.queueWait = t1.Sub(t0).Seconds(), tRun.Sub(t1).Seconds()
	o.run, o.result = tEnd.Sub(tRun).Seconds(), t2.Sub(tEnd).Seconds()
	if rec != nil {
		job := rec.add("daemon.job", 0, t0, t2)
		rec.add("daemon.submit", job, t0, t1)
		rec.add("daemon.queue_wait", job, t1, tRun)
		rec.add("daemon.run", job, tRun, tEnd)
		rec.add("daemon.result", job, tEnd, t2)
	}
	return o
}

// follow reads a job's stream to EOF, noting when the running and the
// terminal lifecycle records arrived.
func follow(ctx context.Context, client *http.Client, url string, o *jobOutcome) (tRun, tEnd time.Time, state string, err error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := client.Do(req)
	if err != nil {
		return tRun, tEnd, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tRun, tEnd, "", fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		o.records++
		o.streamBytes += len(sc.Bytes()) + 1
		var rec streamLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return tRun, tEnd, "", fmt.Errorf("stream record: %w", err)
		}
		switch {
		case rec.Tick != nil:
			o.packets += int64(rec.Tick.PacketsGenerated)
			o.backlogPeak = max(o.backlogPeak, rec.Tick.Backlog)
		case rec.Type == "job" && rec.State == daemon.StateRunning:
			tRun = time.Now()
		case rec.Type == "job" && rec.State != daemon.StateQueued:
			tEnd, state = time.Now(), rec.State
			if rec.Error != "" {
				state += ": " + rec.Error
			}
		}
	}
	if err := sc.Err(); err != nil {
		return tRun, tEnd, "", fmt.Errorf("stream: %w", err)
	}
	if state == "" {
		return tRun, tEnd, "", errors.New("stream ended without a terminal record")
	}
	return tRun, tEnd, state, nil
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return data, nil
}

// sweepChecks digests the result docs in spec order and counts the jobs
// that failed, were refused, or returned a result that differs from
// their twin's.
func sweepChecks(out []jobOutcome) (d digests, failed int, problems []string) {
	first := make(map[int][]byte)
	for i := range out {
		o := &out[i]
		if o.err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("job %d: %v", i, o.err))
			continue
		}
		if prev, ok := first[o.spec]; !ok {
			first[o.spec] = o.doc
		} else if !bytes.Equal(prev, o.doc) {
			failed++
			problems = append(problems, fmt.Sprintf("job %d: result differs from spec %d's first submission", i, o.spec))
		}
	}
	h := make([]byte, 0, 64*len(first))
	for i := 0; i < len(first); i++ {
		h = append(h, digest(first[i])...)
	}
	return digests{"results": digest(h)}, failed, problems
}

// daemonProc is a wormsimd child process.
type daemonProc struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{}
}

// startDaemon runs wormsimd over data and waits for its listen banner.
func startDaemon(ctx context.Context, e *env, data string, checkpointEvery int) (*daemonProc, error) {
	cmd := command(ctx, e.work, filepath.Join(e.bin, "wormsimd"),
		"-addr", "127.0.0.1:0", "-data", data,
		"-executors", fmt.Sprint(loadSize), "-checkpoint-every", fmt.Sprint(checkpointEvery))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, drained: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for first := true; sc.Scan(); first = false {
			if first {
				banner <- sc.Text()
			}
		}
		if sc.Err() != nil {
			io.Copy(io.Discard, pipe) //nolint:errcheck // only draining
		}
	}()
	select {
	case line := <-banner:
		_, rest, ok := strings.Cut(line, "listening on ")
		if !ok {
			d.stop()
			return nil, fmt.Errorf("wormsimd banner %q", line)
		}
		d.url, _, _ = strings.Cut(rest, " ")
		return d, nil
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("wormsimd exited before listening: %s", tail(stderr.String()))
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit, and
// returns its peak memory.
func (d *daemonProc) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // Wait reports the outcome
	<-d.drained
	err := d.cmd.Wait()
	// wormsimd prints its banner before it installs its SIGTERM handler;
	// a daemon stopped in between dies of the signal, which is a stop too.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	return maxRSSMB(d.cmd.ProcessState), err
}

type serviceWorkload struct{}

// setup restarts wormsimd over the data directory of the last pass —
// 200 settled jobs to scrub and reload — until /healthz answers.
func (serviceWorkload) setup(ctx context.Context, e *env) (float64, error) {
	start := time.Now()
	d, err := startDaemon(ctx, e, filepath.Join(e.work, "data"), serviceCheckpoints)
	if err != nil {
		return 0, err
	}
	_, herr := get(ctx, http.DefaultClient, d.url+"/healthz")
	wall := time.Since(start).Seconds()
	if _, err := d.stop(); err != nil || herr != nil {
		return 0, errors.Join(herr, err)
	}
	return wall, nil
}

func (serviceWorkload) pass(ctx context.Context, e *env) (passResult, error) {
	bodies, err := serviceBodies(e.seed)
	if err != nil {
		return passResult{}, err
	}
	data := filepath.Join(e.work, "data")
	if err := os.RemoveAll(data); err != nil {
		return passResult{}, err
	}
	d, err := startDaemon(ctx, e, data, serviceCheckpoints)
	if err != nil {
		return passResult{}, err
	}
	out, wall := sweep(ctx, d.url, bodies, serviceJobs, nil)
	rss, err := d.stop()
	if err != nil {
		return passResult{}, fmt.Errorf("wormsimd: %w", err)
	}
	p := passResult{wall: wall, rssMB: rss, ops: len(out)}
	p.digests, p.failedOps, p.problems = sweepChecks(out)
	for _, o := range out {
		if o.err == nil {
			p.jobs = append(p.jobs, o.latency)
		}
	}
	return p, nil
}

// traced runs the same sweep against an in-process daemon, then a
// shorter one with sparse checkpoints to price checkpoint commits.
func (serviceWorkload) traced(ctx context.Context, e *env, rec *recorder) (tracedResult, error) {
	bodies, err := serviceBodies(e.seed)
	if err != nil {
		return tracedResult{}, err
	}
	for _, b := range bodies {
		if _, err := rec.time("spec.parse", 0, func() error { _, err := spec.Parse(b); return err }); err != nil {
			return tracedResult{}, err
		}
	}
	out, wall, stats, err := inProcessSweep(ctx, filepath.Join(e.work, "traced"), bodies, serviceJobs, serviceCheckpoints, rec)
	if err != nil {
		return tracedResult{}, err
	}
	sparse, _, _, err := inProcessSweep(ctx, filepath.Join(e.work, "sparse"), bodies, serviceSparseJobs, serviceSparseCheckpoints, nil)
	if err != nil {
		return tracedResult{}, err
	}
	d, _, problems := sweepChecks(out)
	_, _, sparseProblems := sweepChecks(sparse)
	problems = append(problems, sparseProblems...)

	var submit, queue, run, result, perTick []float64
	var sparseRun []float64
	var records, streamBytes, refused, httpErrors int
	var packets int64
	backlog := 0
	for _, o := range out {
		switch {
		case o.refused:
			refused++
			continue
		case o.err != nil:
			httpErrors++
			continue
		}
		submit, queue = append(submit, o.submit), append(queue, o.queueWait)
		run, result = append(run, o.run), append(result, o.result)
		// Each job simulates 2 points × 2 replicas, one after another.
		perTick = append(perTick, 1e3*o.run/(4*serviceTicks))
		records += o.records
		streamBytes += o.streamBytes
		packets += o.packets
		backlog = max(backlog, o.backlogPeak)
	}
	for _, o := range sparse {
		if o.err == nil {
			sparseRun = append(sparseRun, o.run)
		}
	}
	n := float64(len(run))
	l := map[string]float64{
		"daemon.submit_p50_ms":          1e3 * median(submit),
		"daemon.submit_p90_ms":          1e3 * percentile(submit, 90),
		"daemon.queue_wait_p50_ms":      1e3 * median(queue),
		"daemon.run_p50_ms":             1e3 * median(run),
		"daemon.run_p90_ms":             1e3 * percentile(run, 90),
		"daemon.result_p50_ms":          1e3 * median(result),
		"daemon.stream_records_per_job": float64(records) / n,
		"daemon.stream_bytes_per_job":   float64(streamBytes) / n,
		"daemon.refused":                float64(refused),
		"daemon.http_errors":            float64(httpErrors),
		"daemon.checkpoint_share":       1 - median(sparseRun)/median(run),
		"sim.tick_p50_ms":               median(perTick),
		"sim.tick_p90_ms":               percentile(perTick, 90),
		"sim.packets":                   float64(packets),
		"sim.backlog_peak":              float64(backlog),
	}
	if lookups := stats.NetCache.Hits + stats.NetCache.Builds; lookups > 0 {
		l["daemon.netcache_hit_ratio"] = float64(stats.NetCache.Hits) / float64(lookups)
	}
	if packets > 0 {
		l["sim.ns_per_packet"] = 1e9 * sum(run) / float64(packets)
	}
	return tracedResult{wall: wall, digests: d, layers: l, problems: problems}, nil
}

// inProcessSweep serves a fresh daemon from this process and runs the
// closed loop against it.
func inProcessSweep(ctx context.Context, data string, bodies [][]byte, jobs, checkpointEvery int, rec *recorder) ([]jobOutcome, float64, daemon.ServerStats, error) {
	var stats daemon.ServerStats
	srv, err := daemon.New(daemon.Config{DataDir: data, Executors: loadSize, CheckpointEvery: checkpointEvery})
	if err != nil {
		return nil, 0, stats, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, stats, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) //nolint:errcheck // ends with Close below
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	out, wall := sweep(ctx, base, bodies, jobs, rec)
	doc, err := get(ctx, http.DefaultClient, base+"/stats")
	if err == nil {
		err = json.Unmarshal(doc, &stats)
	}
	return out, wall, stats, err
}
