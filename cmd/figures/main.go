// Command figures regenerates the data behind every table and figure of
// the paper's evaluation. Figures run concurrently on a bounded worker
// pool; for each experiment it writes a gnuplot-style .dat file and a
// metrics file into the output directory and prints an ASCII rendering
// of the curves, in registry order regardless of completion order.
//
// Usage:
//
//	figures [-out out] [-runs 10] [-jobs N] [-timeout 10m] [-quick] \
//	        [-metrics batch.jsonl] [-check] \
//	        [-checkpoint dir] [-checkpoint-every 10] [-resume dir] \
//	        [-retries 2] [-replica-timeout 2m] [-keep-going] \
//	        [fig4 fig9a ...]
//
//	figures -spec sweep.yaml [-out out]   # one figure from a spec sweep
//
// With no figure IDs, every experiment is regenerated. -jobs bounds the
// figure-level parallelism (default GOMAXPROCS; each figure then
// averages its replicas serially, so the whole batch uses about -jobs
// cores). -timeout aborts the batch; Ctrl-C cancels it mid-run.
//
// -spec turns a declarative scenario spec (DESIGN.md §13) into one
// figure: every grid point becomes a labelled infected-fraction curve,
// written through the same .dat/.metrics pipeline as the paper figures.
// Grid points that share a topology share one materialized network. Run
// flags overlay the spec's run section; figure IDs conflict with -spec.
// A trace-replay workload comes from the spec's "workload" section (the
// -trace-* flags are wormsim's; the paper figures define their own).
//
// Fault tolerance: -checkpoint writes every simulation replica's
// engine snapshot (atomically, grouped by figure and batch) under the
// directory; rerunning with -resume pointing at that directory (and
// identical flags) restarts each replica from its last checkpoint
// instead of tick zero. -retries re-runs failed replicas with backoff;
// with -keep-going a figure whose replicas partially fail still
// averages the completed ones, a figure that fails outright is skipped,
// and figures exits non-zero naming what was lost after writing
// everything that succeeded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/safeio"
	"repro/internal/spec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	out := fs.String("out", "out", "output directory for .dat and metrics files")
	runs := fs.Int("runs", 10, "simulation replicas to average per figure")
	quick := fs.Bool("quick", false, "reduced populations and horizons")
	ascii := fs.Bool("ascii", true, "print ASCII renderings")
	progress := fs.Bool("progress", false, "print per-figure completion to stderr")
	metricsPath := fs.String("metrics", "", "write per-figure JSONL observability counters to this file")
	specPath := fs.String("spec", "", "regenerate one figure from this JSON/YAML scenario spec (a grid becomes one curve per point)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the batch to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile after the batch to this file")
	var cli core.RunOptions
	core.BindRunFlags(fs, &cli)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}
	if err := cli.Validate(); err != nil {
		return err
	}
	if ids := fs.Args(); *specPath != "" && len(ids) > 0 {
		return fmt.Errorf("figure IDs (%s) cannot be combined with -spec", strings.Join(ids, " "))
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "figures:", perr)
		}
	}()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", *out, err)
	}

	if *specPath != "" {
		return runSpec(ctx, fs, *specPath, *out, *ascii)
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiment.IDs()
	}
	if cli.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cli.Timeout)
		defer cancel()
	}

	// Parallelize across figures and keep each figure's replica loop
	// serial: whole figures are the coarser, more evenly sized work
	// units, so figure-level workers scale better than nested pools.
	// The batch timeout is applied to ctx above, figure-level.
	inner := cli
	inner.Jobs = 1
	inner.Timeout = 0
	opt := experiment.Options{RunOptions: inner, Runs: *runs, Quick: *quick}
	if *metricsPath != "" {
		opt.Metrics = &experiment.BatchMetrics{}
	}
	ropts := []runner.Option{runner.WithJobs(cli.Jobs)}
	if cli.KeepGoing {
		ropts = append(ropts, runner.WithKeepGoing())
	}
	if *progress {
		total := len(ids)
		ropts = append(ropts, runner.WithProgress(func(s runner.Stats) {
			fmt.Fprintf(os.Stderr, "figures: %d/%d done (%.2fs elapsed)\n",
				s.Completed, total, s.Wall.Seconds())
		}))
	}
	results, stats, err := experiment.RunAllStats(ctx, ids, opt, ropts...)
	if opt.Metrics != nil {
		// Write whatever was collected even when the batch failed:
		// partial counters are exactly what a post-mortem needs.
		if werr := writeBatchMetrics(*metricsPath, opt.Metrics); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintln(os.Stderr, "figures:", werr)
			}
		}
	}
	if err != nil {
		return err
	}

	for _, res := range results {
		if res == nil {
			continue // failed under -keep-going; reported below
		}
		if err := printResult(*out, res, *ascii); err != nil {
			return err
		}
	}
	if len(stats.Failures) > 0 {
		descs := make([]string, len(stats.Failures))
		for i, f := range stats.Failures {
			descs[i] = fmt.Sprintf("%s (%d attempts): %v", ids[f.Index], f.Attempts, f.Err)
		}
		return fmt.Errorf("%d of %d figures failed: %s", stats.Failed, len(ids), strings.Join(descs, "; "))
	}
	return nil
}

// runSpec regenerates one figure from a scenario spec: the sweep runs
// every grid point (sharing topology state between points whose axes
// leave it alone) and each point contributes one labelled
// infected-fraction curve, written through the same .dat/.metrics
// pipeline as the paper figures.
func runSpec(ctx context.Context, fs *flag.FlagSet, path, out string, ascii bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := spec.Parse(data)
	if err != nil {
		return err
	}
	mod := func(c *spec.Compiled) {
		c.Options = core.MergeRunFlags(fs, c.Options)
	}
	results, sstats, err := spec.Sweep(ctx, s, mod, nil)
	for _, r := range results {
		for _, w := range r.Warnings {
			fmt.Fprintf(os.Stderr, "figures: warning: %s: %s\n", r.Name, w)
		}
	}
	if err != nil {
		return err
	}

	name := s.Name
	if name == "" {
		name = "scenario"
	}
	res := &experiment.Result{
		ID:    sanitizeID(name),
		Paper: fmt.Sprintf("spec %s: %d point(s), %d topology build(s)", path, len(results), sstats.NetBuilds),
		Figure: plot.Figure{
			Title:  name,
			XLabel: "tick",
			YLabel: "infected fraction",
		},
		Metrics: map[string]float64{},
	}
	var failed []string
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r.Err.Error())
			continue
		}
		series := plot.Series{Label: r.Name, Y: r.Result.Infected}
		series.X = make([]float64, len(series.Y))
		for i := range series.X {
			series.X[i] = float64(i + 1)
		}
		res.Figure.Series = append(res.Figure.Series, series)
		res.Metrics[r.Name+".ever"] = r.Result.FinalEverInfected()
		res.Metrics[r.Name+".t50"] = r.Result.TimeToLevel(0.5)
	}
	if len(res.Figure.Series) > 0 {
		if err := printResult(out, res, ascii); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d sweep points failed: %s",
			len(failed), len(results), strings.Join(failed, "; "))
	}
	return nil
}

// sanitizeID maps a spec name onto a safe output file stem.
func sanitizeID(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, name)
}

// printResult writes one figure's .dat and .metrics files and prints
// its terminal rendering.
func printResult(out string, res *experiment.Result, ascii bool) error {
	if err := writeResult(out, res); err != nil {
		return err
	}
	fmt.Printf("== %s ==\n%s\n", res.ID, res.Paper)
	if ascii {
		s, err := res.Figure.RenderASCII(76, 18)
		if err != nil {
			return fmt.Errorf("%s: render: %w", res.ID, err)
		}
		fmt.Println(s)
	}
	printMetrics(res.Metrics)
	fmt.Println()
	return nil
}

// writeBatchMetrics emits one JSONL record per figure with the
// observability counters summed over every simulation replica the
// figure ran, in sorted figure order.
func writeBatchMetrics(path string, bm *experiment.BatchMetrics) error {
	f, err := safeio.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, id := range bm.IDs() {
		rec := struct {
			Type     string           `json:"type"`
			ID       string           `json:"id"`
			Counters map[string]int64 `json:"counters"`
		}{"figure", id, bm.Figure(id)}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

func writeResult(dir string, res *experiment.Result) error {
	dat, err := safeio.Create(filepath.Join(dir, res.ID+".dat"))
	if err != nil {
		return fmt.Errorf("%s: %w", res.ID, err)
	}
	defer dat.Close()
	if err := res.Figure.WriteDat(dat); err != nil {
		return fmt.Errorf("%s: %w", res.ID, err)
	}
	if err := dat.Commit(); err != nil {
		return fmt.Errorf("%s: %w", res.ID, err)
	}
	met, err := safeio.Create(filepath.Join(dir, res.ID+".metrics"))
	if err != nil {
		return fmt.Errorf("%s: %w", res.ID, err)
	}
	defer met.Close()
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(met, "%s\t%g\n", k, res.Metrics[k]); err != nil {
			return fmt.Errorf("%s: %w", res.ID, err)
		}
	}
	if err := met.Commit(); err != nil {
		return fmt.Errorf("%s: %w", res.ID, err)
	}
	return nil
}

func printMetrics(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-40s %.4g\n", k, m[k])
	}
}
