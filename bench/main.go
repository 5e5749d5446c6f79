// Command bench is the repository benchmark. It drives one of four
// workloads through the simulator's CLIs and service, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced pass) as one JSON line:
//
//	bash bench/run.sh --workload internet-1m --seed 1 --seconds 20 --trace 0
//
// run.sh builds this command and the CLIs it drives from the checkout
// it is started in, keeping every build and scratch file under
// .bench_build/. See bench/README.md for the workloads, the metrics,
// and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds one measured run after the builds, inside the
// three minutes a run may take.
const runDeadline = 150 * time.Second

// harness is one workload's three ways of running.
type harness interface {
	// setup times the workload's construction once, in seconds.
	setup(ctx context.Context, e *env) (float64, error)
	// pass runs the workload once, untraced.
	pass(ctx context.Context, e *env) (passResult, error)
	// traced reruns it in-process with spans around each layer.
	traced(ctx context.Context, e *env, rec *recorder) (tracedResult, error)
}

// workload is one named set of inputs.
type workload struct {
	name      string
	setupReps int
	harness
}

var workloads = []workload{
	{"internet-1m", 3, wormsimWorkload{spec: internetSpec, ticks: 80}},
	{"paper-figures", 5, figuresWorkload{ids: paperFigures}},
	{"collateral-campus", 3, wormsimWorkload{spec: collateralSpec, ticks: 600, replay: true}},
	{"service-sweep", 5, serviceWorkload{}},
}

// passResult is one untraced pass.
type passResult struct {
	wall     float64   // seconds
	rssMB    float64   // peak resident set of the pass's child
	jobs     []float64 // latency of each completed job, seconds
	digests  digests
	problems []string // failed output checks
	// ops and failedOps count operations inside the pass (service jobs);
	// a pass with none is itself the one operation.
	ops, failedOps int
}

// tracedResult is one traced pass.
type tracedResult struct {
	wall     float64 // seconds, over the same span of work as the untraced pass
	digests  digests
	layers   map[string]float64
	problems []string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and keeps the reasons any failed.
type tally struct {
	attempted, failed int
	problems          []string
}

// finish reports every failed check and builds the final report from
// the metric values; a value with no sample (NaN) reads 0, since JSON
// has no NaN.
func (t *tally) finish(defs []metricDef, values map[string]float64) report {
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	rep := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.name] = metric{v, d.unit}
	}
	return rep
}

func (t *tally) op(problems ...string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
		t.problems = append(t.problems, problems...)
	}
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "one of "+workloadNames())
	seed := fs.Int64("seed", 1, "generates every input of the workload")
	seconds := fs.Int("seconds", 20, "start another pass only if it should end within this many seconds of the first")
	traceMode := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass instead")
	update := fs.Bool("update-expected", false, "record this run's digests as the expected ones for its seed")
	child := fs.String("child", "", "internal: run a re-executed child (figures, figures-setup)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *child != "" {
		return runFigureChild(*child, *seed)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %s), -seconds >= 1, -trace 0 or 1\n", workloadNames())
		return 2
	}
	e, cleanup, err := prepare(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	prov := collectProvenance(e.root)
	if prov.NProc != loadSize {
		fmt.Fprintf(os.Stderr, "bench: warning: %d CPUs; the load is sized for %d, so numbers are not comparable to the reference\n", prov.NProc, loadSize)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var (
		rep  report
		outs map[string]any
	)
	if *traceMode == 0 {
		rep, outs, err = measure(ctx, e, w, time.Duration(*seconds)*time.Second)
	} else {
		rep, outs, err = traceRun(ctx, e, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	d, _ := outs["digests"].(digests)
	if *update {
		if err := writeExpected(expectedPath(e), w.name, d); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	outs["provenance"], outs["workload"], outs["seed"], outs["report"] = prov, w.name, e.seed, rep
	if err := saveResult(e, w.name, *traceMode, outs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	printReport(rep, d)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// prepare checks that it runs at the root of a checkout, builds the
// CLIs, and makes this run's scratch directory.
func prepare(seed int64) (*env, func(), error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "wormsim")); err != nil {
		return nil, nil, fmt.Errorf("run from the root of a checkout: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin"), self: self, seed: seed}
	if err := buildTools(root, e.bin); err != nil {
		return nil, nil, err
	}
	for _, dir := range []string{"work", "results"} {
		if err := os.MkdirAll(filepath.Join(build, dir), 0o755); err != nil {
			return nil, nil, err
		}
	}
	if e.work, err = os.MkdirTemp(filepath.Join(build, "work"), "run-"); err != nil {
		return nil, nil, err
	}
	return e, func() { os.RemoveAll(e.work) }, nil
}

func expectedPath(e *env) string {
	return filepath.Join(e.root, "bench", "expected", fmt.Sprintf("seed-%d.json", e.seed))
}

// checkDigests compares a pass's digests with the checked-in ones for
// the seed, when there are any.
func checkDigests(e *env, name string, got digests) ([]string, error) {
	want, err := readExpected(expectedPath(e))
	if err != nil || want[name] == nil {
		return nil, err
	}
	return diffDigests(want[name], got), nil
}

// measure times set-up and repeated untraced passes, checks every
// output, and returns the end-to-end metrics.
func measure(ctx context.Context, e *env, w *workload, budget time.Duration) (report, map[string]any, error) {
	var t tally
	var passes []passResult
	start := time.Now()
	for {
		p, err := w.pass(ctx, e)
		if err != nil {
			return report{}, nil, err
		}
		problems := p.problems
		if len(passes) > 0 {
			for _, d := range diffDigests(passes[0].digests, p.digests) {
				problems = append(problems, "not deterministic: "+d)
			}
		} else {
			diff, err := checkDigests(e, w.name, p.digests)
			if err != nil {
				return report{}, nil, err
			}
			for _, d := range diff {
				problems = append(problems, "expected digest: "+d)
			}
		}
		t.op(problems...)
		t.attempted += p.ops
		t.failed += p.failedOps
		passes = append(passes, p)
		// Start another pass only if it should end within the budget.
		if time.Since(start)+time.Duration(p.wall*float64(time.Second)) > budget {
			break
		}
	}
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		s, err := w.setup(ctx, e)
		if err != nil {
			return report{}, nil, err
		}
		t.op()
		setups = append(setups, s)
	}

	var walls, rss, jobs []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		rss = append(rss, p.rssMB)
		jobs = append(jobs, p.jobs...)
	}
	rep := t.finish(endToEnd, map[string]float64{
		"setup_s":     median(setups),
		"run_s":       median(walls),
		"peak_rss_mb": median(rss),
		"jobs_per_s":  float64(len(jobs)) / sum(walls),
		"job_p50_s":   median(jobs),
		"job_p95_s":   percentile(jobs, 95),
	})
	outs := map[string]any{
		"digests": passes[0].digests, "passes": len(passes), "jobs": len(jobs),
		"job_tail_percentile": tailPercentile(len(jobs)), "setup_samples": setups,
		"run_samples": walls, "problems": t.problems,
	}
	return rep, outs, nil
}

// traceRun makes one untraced pass and one traced pass of the same
// inputs, holds the traced outputs to the untraced digests, and returns
// the per-layer metrics.
func traceRun(ctx context.Context, e *env, w *workload) (report, map[string]any, error) {
	var t tally
	p, err := w.pass(ctx, e)
	if err != nil {
		return report{}, nil, err
	}
	diff, err := checkDigests(e, w.name, p.digests)
	if err != nil {
		return report{}, nil, err
	}
	t.op(append(p.problems, diff...)...)
	t.attempted += p.ops
	t.failed += p.failedOps

	rec := newRecorder(w.name)
	tr, err := w.traced(ctx, e, rec)
	if err != nil {
		return report{}, nil, err
	}
	problems := tr.problems
	for _, d := range diffDigests(p.digests, tr.digests) {
		problems = append(problems, "traced pass differs from untraced: "+d)
	}
	t.op(problems...)

	spans := rec.snapshot()
	layers := map[string]float64{
		"topology.build_s": total(spans, "topology.build"),
		"routing.build_s":  total(spans, "routing.build"),
		"sim.new_s":        total(spans, "sim.new"),
		"spec.parse_us":    1e6 * median(durations(spans, "spec.parse")),
		"tracing_overhead": tr.wall/p.wall - 1,
	}
	for k, v := range tr.layers {
		layers[k] = v
	}
	rep := t.finish(perLayer, layers)
	rows := selfTimes(spans)
	fmt.Printf("self time by span, %s seed %d (traced wall %.3fs, untraced %.3fs):\n", w.name, e.seed, tr.wall, p.wall)
	printSelfTimes(os.Stdout, rows)
	path := resultPath(e, w.name, "spans")
	if err := writeSpans(path, spans); err != nil {
		return report{}, nil, err
	}
	outs := map[string]any{
		"digests": p.digests, "traced_wall_s": tr.wall, "untraced_wall_s": p.wall,
		"spans": path, "problems": t.problems,
	}
	return rep, outs, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"}, {"job_p50_s", "s"}, {"job_p95_s", "s"},
}

// perLayer lists the metrics a traced run reports; layers a workload
// does not exercise read 0.
var perLayer = []metricDef{
	{"topology.build_s", "s"}, {"routing.build_s", "s"}, {"sim.new_s", "s"},
	{"sim.bytes_per_host", "B"}, {"sim.tick_p50_ms", "ms"}, {"sim.tick_p90_ms", "ms"},
	{"sim.ns_per_packet", "ns"}, {"sim.packets", "count"}, {"sim.backlog_peak", "count"},
	{"sim.engine_self_s", "s"}, {"sim.collateral_ratio", "ratio"},
	{"experiment.fig1b_s", "s"}, {"experiment.fig4_s", "s"}, {"experiment.fig5_s", "s"},
	{"experiment.fig6_s", "s"}, {"experiment.fig8a_s", "s"}, {"experiment.fig8b_s", "s"},
	{"runner.replicas", "count"}, {"runner.ticks_per_s", "1/s"}, {"runner.imbalance", "ratio"},
	{"trace.contacts_s", "s"}, {"trace.contacts", "count"},
	{"ratelimit.allow_s", "s"}, {"ratelimit.allow_calls", "count"},
	{"ratelimit.denied_ratio", "ratio"}, {"ratelimit.delay_queue_max", "count"},
	{"daemon.submit_p50_ms", "ms"}, {"daemon.submit_p90_ms", "ms"},
	{"daemon.queue_wait_p50_ms", "ms"}, {"daemon.run_p50_ms", "ms"}, {"daemon.run_p90_ms", "ms"},
	{"daemon.result_p50_ms", "ms"}, {"daemon.stream_records_per_job", "count"},
	{"daemon.stream_bytes_per_job", "B"}, {"daemon.netcache_hit_ratio", "ratio"},
	{"daemon.refused", "count"}, {"daemon.http_errors", "count"}, {"daemon.checkpoint_share", "ratio"},
	{"spec.parse_us", "us"}, {"tracing_overhead", "ratio"},
}

// runFigureChild is the re-executed child of paper-figures.
func runFigureChild(mode string, seed int64) int {
	var err error
	switch mode {
	case "figures":
		err = figuresChild(context.Background(), seed)
	case "figures-setup":
		err = figuresSetupChild(seed)
	default:
		err = errors.New("unknown child " + mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultPath names a file under .bench_build/results for this run.
func resultPath(e *env, workload, kind string) string {
	return filepath.Join(e.root, ".bench_build", "results",
		fmt.Sprintf("%s-seed%d-%s-%d.json", workload, e.seed, kind, time.Now().UnixNano()))
}

// saveResult writes the run's report, digests and provenance.
func saveResult(e *env, workload string, traceMode int, outs map[string]any) error {
	kind := "run"
	if traceMode == 1 {
		kind = "trace"
	}
	path := resultPath(e, workload, kind)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(outs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric by name and unit, and the output
// digests, so two commits can be compared on any seed.
func printReport(rep report, d digests) {
	for _, k := range sortedKeys(d) {
		fmt.Printf("digest %-25s %s\n", k, d[k])
	}
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Printf("%-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
}
