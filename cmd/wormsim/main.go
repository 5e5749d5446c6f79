// Command wormsim runs worm-propagation simulation scenarios and prints
// the per-tick infected / ever-infected / immunized fractions as
// tab-separated values (tick first), suitable for plotting. Replicas
// run concurrently on a bounded worker pool; the averaged series is
// identical for every -jobs value (DESIGN.md §12). Ctrl-C or -timeout
// aborts the batch.
//
// Usage:
//
//	wormsim -topology powerlaw -n 1000 -worm random -beta 0.8 \
//	        -defense backbone -rate 0.4 -ticks 150 -runs 10 \
//	        [-jobs N] [-timeout 5m] [-progress] \
//	        [-metrics run.jsonl] [-check] \
//	        [-checkpoint dir] [-checkpoint-every 10] [-resume path] \
//	        [-retries 2] [-replica-timeout 2m]
//
//	wormsim -spec scenario.yaml        # declarative scenario or sweep
//	wormsim -specfuzz 25 -seed 1       # random valid specs under -check
//
//	wormsim -topology enterprise -n 120 -trace-replay synthetic -check
//	wormsim -trace-replay campus.trace -trace-tick-ms 1000
//
// -trace-replay swaps the worm's β-draw scan source for a trace-replay
// workload: worm scans and benign background flows (normal clients,
// servers, P2P) stream tick by tick from the trace generator's traffic
// profile ('synthetic') or a serialized trace file (the tracegen
// format), competing for the same rate-limiter credits. The counters
// footer then reports collateral damage — benign contacts a defense
// falsely throttled. -trace-tick-ms maps trace milliseconds onto
// engine ticks (default 1000 = one simulated second per tick). Both
// fill the spec's "workload" section (DESIGN.md §17); with -spec they
// override its source and tick and keep the rest of its profile.
//
// Every run is a scenario spec (DESIGN.md §13). In flag mode the
// scenario flags fill one in — -worm localpref is spec worm kind
// "local", -defense none leaves the defense stack empty, -topology
// twolevel sizes its AS graph from -n — and it runs down the same path
// as a spec file passed with -spec, so the two print identical output
// for the same scenario. A spec with a grid section becomes a sweep,
// printing one summary line per grid point. Run flags (-jobs,
// -timeout, -check, ...) overlay the spec's run section; scenario
// flags conflict with -spec. -specfuzz samples N
// random valid specs (seeded by -seed) and runs each under the
// invariant audit — the CLI face of the property-based fuzz campaign.
//
// -jobs spends cores across replicas; each replica's tick loop is
// serial. See README.md's performance guide.
//
// -metrics streams every replica's per-tick structured counters, events,
// and summary as JSON Lines; -check cross-checks the engine's internal
// invariants every tick and aborts on the first violation.
//
// Fault tolerance: -checkpoint periodically writes each replica's
// engine snapshot (atomically) into the directory; -resume restarts
// replicas from those snapshots (same flags required — a checkpoint
// from a different scenario is rejected). -retries re-runs a crashed,
// failed, or timed-out replica with backoff, resuming from its last
// checkpoint when -checkpoint and -resume point at the same directory.
// Replicas that still fail do not abort the batch: the averaged series
// covers the completed replicas, partial metrics are flushed, and
// wormsim exits non-zero naming the failed replicas.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/safeio"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wormsim:", err)
		os.Exit(1)
	}
}

// scenarioFlags are the flags that assemble a scenario by hand; they
// conflict with -spec, which owns the whole scenario description.
var scenarioFlags = map[string]bool{
	"topology": true, "n": true, "worm": true, "beta": true, "scans": true,
	"probe": true, "localp": true, "defense": true, "fraction": true,
	"rate": true, "hubcap": true, "ticks": true, "runs": true, "seed": true,
	"initial": true, "immunize-at": true, "mu": true,
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("wormsim", flag.ContinueOnError)
	// Flag mode is a spec run: the scenario flags fill s, directly or
	// through the few translations below, and s then runs down the same
	// path as a -spec file. Keep-going defaults on for wormsim: one dead
	// replica must not discard the batch. Failures surface as a non-zero
	// exit after the results (and any partial metrics) are flushed.
	s := &spec.Spec{Format: spec.Format, Version: spec.Version, Run: &spec.Run{KeepGoing: true}}
	topo := fs.String("topology", "powerlaw", "topology: star | powerlaw | enterprise | twolevel")
	n := fs.Int("n", 1000, "node count (star/powerlaw; approximate host count for twolevel)")
	wormKind := fs.String("worm", "random", "worm targeting: random | localpref | sequential")
	fs.Float64Var(&s.Worm.Beta, "beta", 0.8, "per-scan infection probability β")
	fs.IntVar(&s.Worm.ScansPerTick, "scans", 1, "scan attempts per tick")
	fs.BoolVar(&s.Worm.ProbeFirst, "probe", false, "Welchia-style: ping targets and await the reply before exploiting")
	localP := fs.Float64("localp", 0.8, "local-preference probability (localpref worm)")
	defense := fs.String("defense", "none", "defense: none | host | edge | backbone | hub")
	fraction := fs.Float64("fraction", 0.3, "host deployment fraction (host defense)")
	rate := fs.Float64("rate", 0.4, "limited link rate or filtered host scan rate")
	hubCap := fs.Int("hubcap", 2, "hub forwarding cap (hub defense)")
	fs.IntVar(&s.Ticks, "ticks", 150, "simulation horizon")
	fs.IntVar(&s.Run.Runs, "runs", 10, "replicas to average")
	fs.Int64Var(&s.Seed, "seed", 1, "random seed (also seeds -specfuzz sampling)")
	fs.IntVar(&s.InitialInfected, "initial", 1, "initially infected hosts")
	immunizeAt := fs.Float64("immunize-at", 0, "start patching at this infected fraction (0 = off)")
	mu := fs.Float64("mu", 0.1, "per-tick patch probability")
	specPath := fs.String("spec", "", "run the scenario (or sweep) in this JSON/YAML spec file instead of assembling one from flags")
	specFuzz := fs.Int("specfuzz", 0, "sample and run this many random valid specs under the invariant audit")
	progress := fs.Bool("progress", false, "print replica completion and throughput to stderr")
	metricsPath := fs.String("metrics", "", "write per-replica JSONL metrics (ticks, events, summaries) to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the batch to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile after the batch to this file")
	var wl workloadFlags
	wl.bind(fs)
	cli := core.RunOptions{KeepGoing: true}
	core.BindRunFlags(fs, &cli)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *n <= 0:
		return fmt.Errorf("-n must be positive, got %d", *n)
	case s.Ticks <= 0:
		return fmt.Errorf("-ticks must be positive, got %d", s.Ticks)
	case s.Run.Runs <= 0:
		return fmt.Errorf("-runs must be positive, got %d", s.Run.Runs)
	case s.InitialInfected <= 0:
		return fmt.Errorf("-initial must be positive, got %d", s.InitialInfected)
	case s.Worm.ScansPerTick < 0:
		return fmt.Errorf("-scans must be >= 0, got %d", s.Worm.ScansPerTick)
	case wl.tickMS != nil && *wl.tickMS < 0:
		return fmt.Errorf("-trace-tick-ms must be >= 0 (0 = 1000), got %d", *wl.tickMS)
	case *specFuzz < 0:
		return fmt.Errorf("-specfuzz must be >= 0, got %d", *specFuzz)
	case *specPath != "" && *specFuzz > 0:
		return fmt.Errorf("-spec and -specfuzz are mutually exclusive")
	}
	if err := cli.Validate(); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "wormsim:", perr)
		}
	}()

	if *specFuzz > 0 {
		return runSpecFuzz(ctx, *specFuzz, s.Seed, cli, wl)
	}
	if *specPath != "" {
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			if scenarioFlags[f.Name] && conflict == "" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-%s cannot be combined with -spec (the spec file owns the scenario)", conflict)
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if s, err = spec.Parse(data); err != nil {
			return err
		}
		return runSpec(ctx, fs, wl.apply(s), *progress, *metricsPath)
	}

	switch *topo {
	case "star", "powerlaw":
		s.Topology = spec.Topology{Kind: *topo, Nodes: *n}
	case "enterprise":
		s.Topology = spec.Topology{Kind: *topo, Backbones: 2, EdgesPerBackbone: 5, HostsPerSubnet: *n / 10}
	case "twolevel":
		// A BRITE-style AS internet with ~n hosts in 256-host stub
		// subnets; 5% of ASes are transit-only. This is the scale
		// topology: the router stores only a core × core table, so
		// -n 100000 and beyond stay cheap.
		s.Topology = spec.Topology{Kind: *topo, ASes: max(*n/256, 4) * 20 / 19,
			AttachM: 2, TransitFraction: 0.05, HostsPerStub: 256}
	default:
		return fmt.Errorf("unknown topology %q", *topo)
	}
	switch *wormKind {
	case "random", "sequential":
		s.Worm.Kind = *wormKind
	case "localpref":
		s.Worm.Kind, s.Worm.LocalPref = "local", *localP
	default:
		return fmt.Errorf("unknown worm %q", *wormKind)
	}
	switch *defense {
	case "none":
	case "host":
		s.Defenses = []spec.Defense{{Kind: *defense, Fraction: *fraction, Rate: *rate}}
	case "edge", "backbone":
		s.Defenses = []spec.Defense{{Kind: *defense, Rate: *rate}}
	case "hub":
		s.Defenses = []spec.Defense{{Kind: *defense, HubCap: *hubCap}}
	default:
		return fmt.Errorf("unknown defense %q", *defense)
	}
	if *immunizeAt > 0 {
		s.Immunize = &spec.Immunize{StartLevel: *immunizeAt, Mu: *mu}
	}
	return runSpec(ctx, fs, wl.apply(s), *progress, *metricsPath)
}

// workloadFlags are -trace-replay and -trace-tick-ms, each nil until
// set. Unlike the other scenario flags they combine with -spec: apply
// overrides only the workload fields they name.
type workloadFlags struct {
	source *string
	tickMS *int64
}

func (w *workloadFlags) bind(fs *flag.FlagSet) {
	fs.Func("trace-replay", "drive scans from a trace-replay workload: a trace file path, or 'synthetic' for the generator's traffic profile (empty = β draws)", func(v string) error {
		w.source = &v
		return nil
	})
	fs.Func("trace-tick-ms", "trace milliseconds one engine tick spans under -trace-replay (0 = 1000)", func(v string) error {
		ms, err := strconv.ParseInt(v, 10, 64)
		w.tickMS = &ms
		return err
	})
}

// apply returns s with the set workload flags overlaid on its workload
// section, keeping the rest of its traffic profile; s is not modified.
func (w workloadFlags) apply(s *spec.Spec) *spec.Spec {
	if w.source == nil && w.tickMS == nil {
		return s
	}
	out, wl := *s, spec.Workload{}
	if s.Workload != nil {
		wl = *s.Workload
	}
	switch {
	case w.source == nil:
	case *w.source == "synthetic":
		wl.Kind, wl.Path = "synthetic", ""
	default:
		wl.Kind, wl.Path = "trace", *w.source
	}
	if w.tickMS != nil {
		wl.TickMS = *w.tickMS
	}
	out.Workload = &wl
	return &out
}

// runSpec executes the scenario — or, with a grid section, the sweep —
// described by s, which came from a spec file or from the scenario
// flags. Run flags the user set explicitly overlay the spec's run
// section; a single-point spec prints the full series, a sweep prints
// one summary line per point.
func runSpec(ctx context.Context, fs *flag.FlagSet, s *spec.Spec, progress bool, metricsPath string) error {
	points, err := s.Points()
	if err != nil {
		return err
	}
	if metricsPath != "" && points > 1 {
		return fmt.Errorf("-metrics needs a single-scenario spec; this sweep has %d points", points)
	}

	var rings []*obs.Ring
	mod := func(c *spec.Compiled) {
		c.Options = core.MergeRunFlags(fs, c.Options)
		if progress {
			name := c.Name
			c.Options.Progress = func(st runner.Stats) {
				fmt.Fprintf(os.Stderr, "wormsim: %s: %d/%d runs (%.0f ticks/sec)\n",
					name, st.Completed, st.Runs, st.TicksPerSec())
			}
		}
		if metricsPath != "" {
			rings = make([]*obs.Ring, c.Runs)
			c.Options.Collectors = func(r int) obs.Collector {
				rings[r] = obs.NewRing(c.Config.Ticks)
				return rings[r]
			}
		}
	}
	results, sstats, err := spec.Sweep(ctx, s, mod, nil)
	for _, r := range results {
		for _, w := range r.Warnings {
			fmt.Fprintf(os.Stderr, "wormsim: warning: %s: %s\n", r.Name, w)
		}
	}
	if len(rings) > 0 {
		if werr := writeMetrics(metricsPath, rings); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintln(os.Stderr, "wormsim:", werr)
			}
		}
	}
	if err != nil {
		return err
	}
	if len(results) == 1 {
		printSeries(results[0].Result)
		return replicaFailures(results[0].Stats)
	}

	fmt.Printf("# sweep: %d points, %d topology builds\n", len(results), sstats.NetBuilds)
	fmt.Println("# point\tt50\tfinal\tever")
	var failed []string
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r.Err.Error())
			continue
		}
		fmt.Printf("%s\t%.1f\t%.4f\t%.4f\n", r.Name,
			r.Result.TimeToLevel(0.5), r.Result.FinalInfected(), r.Result.FinalEverInfected())
		if ferr := replicaFailures(r.Stats); ferr != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", r.Name, ferr))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d sweep points degraded: %s",
			len(failed), len(results), strings.Join(failed, "; "))
	}
	return nil
}

// runSpecFuzz samples random valid specs and runs each under the
// engine's invariant audit, printing one line per sample. Sampling is
// deterministic in -seed, so any failure reproduces exactly.
func runSpecFuzz(ctx context.Context, count int, seed int64, cli core.RunOptions, wl workloadFlags) error {
	rng := rand.New(rand.NewSource(seed))
	var failures []string
	for i := 0; i < count; i++ {
		s := wl.apply(spec.Fuzz(rng))
		c, err := s.Compile(nil)
		if err != nil {
			// Fuzz promises valid specs; a compile error is a bug in the
			// sampler itself, not in the engine under test.
			canon, _ := s.Canonical()
			return fmt.Errorf("specfuzz: sample %d does not compile: %v\n%s", i, err, canon)
		}
		c.Options = cli
		c.Options.Check = true
		res, _, err := c.Run(ctx)
		if err != nil {
			canon, _ := s.Canonical()
			fmt.Fprintf(os.Stderr, "wormsim: specfuzz: sample %d failed:\n%s", i, canon)
			failures = append(failures, fmt.Sprintf("sample %d (%s): %v", i, s.Name, err))
			if ctx.Err() != nil {
				break
			}
			continue
		}
		fmt.Printf("%3d  %-44s ok  ever=%.3f\n", i, s.Name, res.FinalEverInfected())
	}
	if len(failures) > 0 {
		return fmt.Errorf("specfuzz: %d of %d samples failed under -check: %s",
			len(failures), count, strings.Join(failures, "; "))
	}
	fmt.Printf("# specfuzz: %d samples clean under -check (seed %d)\n", count, seed)
	return nil
}

// printSeries prints the averaged per-tick series with the summary and
// counters footers.
func printSeries(res *sim.Result) {
	fmt.Println("# tick\tinfected\tever\timmunized\tbacklog")
	for i := range res.Infected {
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%d\n",
			i+1, res.Infected[i], res.EverInfected[i], res.Immunized[i], res.Backlog[i])
	}
	fmt.Printf("# t50=%.1f final=%.3f ever=%.3f\n",
		res.TimeToLevel(0.5), res.FinalInfected(), res.FinalEverInfected())
	if c := res.Counters; len(c) > 0 {
		fmt.Printf("# scans=%d throttled=%d generated=%d delivered=%d dropped=%d infections=%d\n",
			c["scan_attempts"], c["throttled_contacts"], c["packets_generated"],
			c["packets_delivered"], c["packets_dropped"], c["infections"])
		if bc := c["benign_contacts"]; bc > 0 {
			// Trace-replay runs carry benign background flows; the
			// collateral rate is the fraction a defense falsely throttled.
			fmt.Printf("# benign=%d benign_throttled=%d collateral=%.4f\n",
				bc, c["benign_throttled"], float64(c["benign_throttled"])/float64(bc))
		}
	}
}

// replicaFailures renders a degraded batch (keep-going with failed
// replicas) as the command's non-zero exit: the series above covers the
// completed replicas only, and every lost replica is named.
func replicaFailures(stats runner.Stats) error {
	if len(stats.Failures) == 0 {
		return nil
	}
	descs := make([]string, len(stats.Failures))
	for i, f := range stats.Failures {
		descs[i] = fmt.Sprintf("replica %d (%d attempts): %v", f.Index, f.Attempts, f.Err)
	}
	return fmt.Errorf("%d of %d replicas failed: %s", stats.Failed, stats.Runs, strings.Join(descs, "; "))
}

// writeMetrics emits every replica's collected metrics as one JSONL
// stream, each record tagged with its replica index. Replicas a
// cancelled batch never started are skipped. The file is committed
// atomically: a failure mid-write leaves any previous metrics file
// intact.
func writeMetrics(path string, rings []*obs.Ring) error {
	f, err := safeio.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	for r, ring := range rings {
		if ring == nil {
			continue
		}
		if err := obs.WriteJSONL(f, r, ring); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}
