package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
)

// paperFigures are the paper's simulated figures, regenerated at paper
// fidelity (ten replicas per curve).
var paperFigures = []string{"fig1b", "fig4", "fig5", "fig6", "fig8a", "fig8b"}

const figureReplicas = 10

// figureOptions are the options `figures -jobs 2` runs every figure
// with: each figure averages its replicas serially, and the figure
// pool owns the parallelism.
func figureOptions(seed int64, quick bool) experiment.Options {
	return experiment.Options{RunOptions: core.RunOptions{Jobs: 1}, Runs: figureReplicas, Seed: seed, Quick: quick}
}

// figuresChild regenerates the figures the way cmd/figures does (which
// has no seed flag) and prints their digests and metrics as JSON. It
// runs in a re-executed child so its memory and wall time are its own.
func figuresChild(ctx context.Context, seed int64) error {
	results, _, err := experiment.RunAllStats(ctx, paperFigures, figureOptions(seed, false), runner.WithJobs(loadSize))
	if err != nil {
		return err
	}
	out, err := figureOutputs(results)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// figuresSetupChild builds the figures' shared 1000-node power-law net —
// graph, roles, subnets and routing — the construction every
// power-law figure batch repeats before its first tick.
func figuresSetupChild(seed int64) error {
	g, err := topology.BarabasiAlbert(1000, 1, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		return err
	}
	_ = topology.Subnets(g, roles)
	_ = sim.BuildNet(g)
	return nil
}

// figureSet is what one regeneration produced: the digests of each
// figure's .dat and .metrics files, and the metrics text itself.
type figureSet struct {
	Digests digests           `json:"digests"`
	Metrics map[string]string `json:"metrics"`
}

// figureOutputs renders every figure the way cmd/figures writes it.
func figureOutputs(results []*experiment.Result) (figureSet, error) {
	out := figureSet{Digests: digests{}, Metrics: map[string]string{}}
	for _, r := range results {
		var dat bytes.Buffer
		if err := r.Figure.WriteDat(&dat); err != nil {
			return out, fmt.Errorf("%s: %w", r.ID, err)
		}
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var met strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&met, "%s\t%g\n", k, r.Metrics[k])
		}
		out.Digests[r.ID+".dat"] = digest(dat.Bytes())
		out.Digests[r.ID+".metrics"] = digest([]byte(met.String()))
		out.Metrics[r.ID] = met.String()
	}
	return out, nil
}

// check parses the metrics text and applies the paper-shape checks.
func (f figureSet) check() []string {
	m := make(map[string]map[string]float64)
	for id, text := range f.Metrics {
		m[id] = make(map[string]float64)
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			k, v, ok := strings.Cut(line, "\t")
			if !ok {
				continue
			}
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return []string{fmt.Sprintf("%s: metric %q: %v", id, k, err)}
			}
			m[id][k] = x
		}
	}
	return checkFigureShapes(m)
}

// figuresWorkload regenerates ids. Its untraced pass always runs the
// child, which regenerates paperFigures at paper fidelity; tests trace a
// quick single figure.
type figuresWorkload struct {
	ids   []string
	quick bool
}

func (figuresWorkload) setup(ctx context.Context, e *env) (float64, error) {
	c, err := runChild(ctx, e.work, e.self, "-child", "figures-setup", "-seed", strconv.FormatInt(e.seed, 10))
	return c.Wall, err
}

func (figuresWorkload) pass(ctx context.Context, e *env) (passResult, error) {
	c, err := runChild(ctx, e.work, e.self, "-child", "figures", "-seed", strconv.FormatInt(e.seed, 10))
	if err != nil {
		return passResult{}, err
	}
	var f figureSet
	if err := json.Unmarshal(c.Stdout, &f); err != nil {
		return passResult{}, fmt.Errorf("figures child output: %w", err)
	}
	return passResult{
		wall: c.Wall, rssMB: c.RSSMB, jobs: []float64{c.Wall},
		digests: f.Digests, problems: f.check(),
	}, nil
}

// traced regenerates the figures on loadSize workers, as the figure
// pool does, timing each figure and — through its replica pool's
// progress callback — each of its replicas.
func (w figuresWorkload) traced(ctx context.Context, e *env, rec *recorder) (tracedResult, error) {
	metrics := &experiment.BatchMetrics{}
	figs := make([]tracedFigure, len(w.ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for worker := 0; worker < loadSize; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(figs) {
					return
				}
				figs[i].run(ctx, rec, w.ids[i], figureOptions(e.seed, w.quick), metrics)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	results := make([]*experiment.Result, len(figs))
	l := make(map[string]float64)
	var figTotal, replicaS float64
	var ticks, packets int64
	var perTickMS []float64
	replicas := 0
	for i, f := range figs {
		if f.err != nil {
			return tracedResult{}, fmt.Errorf("%s: %w", w.ids[i], f.err)
		}
		results[i] = f.res
		l["experiment."+w.ids[i]+"_s"] = f.wall
		figTotal += f.wall
		replicaS += f.replicaS
		replicas += len(f.perTickMS)
		perTickMS = append(perTickMS, f.perTickMS...)
		ticks += f.ticks
		packets += metrics.Figure(w.ids[i])["packets_generated"]
	}
	out, err := figureOutputs(results)
	if err != nil {
		return tracedResult{}, err
	}
	l["runner.replicas"] = float64(replicas)
	l["runner.ticks_per_s"] = float64(ticks) / replicaS
	l["runner.imbalance"] = wall / (figTotal / loadSize)
	l["sim.tick_p50_ms"] = median(perTickMS)
	l["sim.tick_p90_ms"] = percentile(perTickMS, 90)
	l["sim.packets"] = float64(packets)
	if packets > 0 {
		l["sim.ns_per_packet"] = 1e9 * replicaS / float64(packets)
	}
	return tracedResult{digests: out.Digests, layers: l, wall: wall}, nil
}

// tracedFigure is one figure of the traced pass. Its replicas run one
// at a time, so the time between two progress snapshots is one
// replica's.
type tracedFigure struct {
	res       *experiment.Result
	err       error
	wall      float64
	replicaS  float64
	ticks     int64
	perTickMS []float64 // each replica's mean tick time
}

func (f *tracedFigure) run(ctx context.Context, rec *recorder, id string, opt experiment.Options, metrics *experiment.BatchMetrics) {
	span := rec.begin("experiment."+id, 0)
	var last time.Time
	var lastTicks int64
	opt.Metrics = metrics
	opt.Progress = func(st runner.Stats) {
		now := time.Now()
		if st.Completed+st.Failed > 0 {
			rec.add("runner.replica", span, last, now)
			d := now.Sub(last).Seconds()
			f.replicaS += d
			if n := st.Ticks - lastTicks; n > 0 {
				f.perTickMS = append(f.perTickMS, 1e3*d/float64(n))
				f.ticks += n
			}
		}
		last, lastTicks = now, st.Ticks
	}
	start := time.Now()
	f.res, f.err = experiment.RunContext(ctx, id, opt)
	f.wall = time.Since(start).Seconds()
	rec.end(span)
}
