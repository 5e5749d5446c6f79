// Package experiment is the figure-regeneration harness: one entry per
// figure of the paper's evaluation, each producing the figure's labelled
// series plus the headline metrics recorded in EXPERIMENTS.md. The
// parameter choices per figure (and the reasoning behind the ones the
// paper leaves unspecified) are documented on each builder.
package experiment

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Options tunes cost vs fidelity of a figure run. The run-execution
// knobs (Jobs, Check, retries, checkpointing, ...) are the
// embedded core.RunOptions — the same declarative struct core.Run and
// the spec compiler use; every figure batch runs through core.Run, and
// experiment adds only the figure-harness parameters on top.
//
// Figure checkpoints are laid out as
// <Checkpoint>/<figure>/batch-NN/replica-NNN.ckpt — batches are
// numbered in the order the figure runs them, which is deterministic
// (builders run their batches sequentially). Resume names the root of
// a layout left by a previous interrupted run with identical options
// (usually the same directory as Checkpoint); replicas without a
// checkpoint start fresh. The single-file Resume form core supports
// does not apply here, and neither do Workload and Collectors: each
// figure defines its own workload, and Metrics is the harness's
// collector. KeepGoing degrades per figure: each figure's batch
// averages over the replicas that completed, and the per-figure
// "replica_failed"/"replica_retries" counters (in Metrics) record what
// was lost. When figures themselves run in parallel (RunAllStats), keep
// Jobs small to avoid oversubscription.
type Options struct {
	core.RunOptions

	// Runs is the number of simulation replicas to average (paper: 10).
	// 0 means 10.
	Runs int
	// Seed is the base random seed (0 means the default, 4).
	Seed int64
	// TraceDuration is the synthetic trace length for the Section 7
	// figures (0 means 2 hours; the full calibration bench uses 6).
	TraceDuration int64
	// Quick shrinks populations/horizons for fast tests.
	Quick bool
	// Metrics, when non-nil, collects per-figure observability counters
	// (summed over every simulation replica a figure runs) into the
	// sink. Safe for concurrent figures.
	Metrics *BatchMetrics

	// figID is the figure currently being built; RunContext stamps it on
	// the copy of Options it hands the builder so run can attribute
	// counters.
	figID string
	// ckptSeq numbers the figure's simulation batches for the
	// checkpoint layout; RunContext initializes one per figure
	// invocation (the pointer survives the by-value Options copies the
	// builders make).
	ckptSeq *atomic.Int32
	// nets caches the figure's topologies across its batches;
	// RunContext initializes one per figure invocation.
	nets *spec.NetCache
}

// BatchMetrics accumulates the observability counters of every
// simulation batch run while regenerating figures, keyed by figure ID.
// One sink serves a whole RunAllStats batch; methods are safe for concurrent
// use.
type BatchMetrics struct {
	mu       sync.Mutex
	byFigure map[string]map[string]int64
}

// add key-wise sums c into the figure's counter map.
func (b *BatchMetrics) add(id string, c map[string]int64) {
	if len(c) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byFigure == nil {
		b.byFigure = make(map[string]map[string]int64)
	}
	m := b.byFigure[id]
	if m == nil {
		m = make(map[string]int64, len(c))
		b.byFigure[id] = m
	}
	for k, v := range c {
		m[k] += v
	}
}

// Figure returns a copy of the counters recorded for one figure (nil
// when none were).
func (b *BatchMetrics) Figure(id string) map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	src := b.byFigure[id]
	if src == nil {
		return nil
	}
	out := make(map[string]int64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// IDs returns the figure IDs with recorded counters, sorted.
func (b *BatchMetrics) IDs() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.byFigure))
	for id := range b.byFigure {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// run is the one funnel every figure builder runs its simulation
// batches through. It lowers s with the spec package's one lowering
// over the figure's cached topology, applies patch (nil for none) for
// the few engine features no spec field names, points the checkpoint
// options at the batch's <fig>/batch-NN directories, runs the batch
// through core.Run (which applies the audit, metrics, workload,
// checkpoint, and fault-tolerance knobs), and attributes the batch's
// counters to the figure being built.
func (o Options) run(ctx context.Context, s *spec.Spec, patch func(*sim.Config)) (*sim.Result, error) {
	net, err := o.net(s)
	if err != nil {
		return nil, err
	}
	cfg, err := s.Config(net)
	if err != nil {
		return nil, err
	}
	if patch != nil {
		patch(&cfg)
	}
	ro := o.RunOptions
	ro.Checkpoint, ro.Resume, ro.Collectors, ro.Workload = "", "", nil, nil
	if s.Workload != nil {
		w := core.WorkloadSpec(*s.Workload)
		ro.Workload = &w
	}
	if o.ckptSeq != nil {
		batch := fmt.Sprintf("batch-%02d", o.ckptSeq.Add(1))
		if o.Checkpoint != "" {
			ro.Checkpoint = filepath.Join(o.Checkpoint, o.figID, batch)
		}
		if o.Resume != "" {
			ro.Resume = filepath.Join(o.Resume, o.figID, batch)
		}
	}
	// A replay workload's point is its collateral counters, so those
	// batches always tally.
	if o.Metrics != nil || s.Workload != nil {
		ro.Collectors = func(int) obs.Collector { return obs.NewTally() }
	}
	res, stats, err := core.Run(ctx, cfg, o.runs(), ro)
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		o.Metrics.add(o.figID, res.Counters)
		if stats.Retries > 0 || stats.Failed > 0 {
			o.Metrics.add(o.figID, map[string]int64{
				"replica_retries": int64(stats.Retries),
				"replica_failed":  int64(stats.Failed),
			})
		}
	}
	return res, nil
}

// net returns the figure's shared topology state for s, building it on
// first use; nil (build per batch) outside RunContext.
func (o Options) net(s *spec.Spec) (*spec.Net, error) {
	if o.nets == nil {
		return nil, nil
	}
	key, err := s.NetKey()
	if err != nil {
		return nil, err
	}
	net, _, err := o.nets.Get(key, s.BuildNet)
	return net, err
}

// simCase is one labelled variant of a figure's base spec: mod edits
// the spec (nil for the base itself), and patch edits the lowered
// config for an engine feature no spec field names.
type simCase struct {
	label string
	mod   func(*spec.Spec)
	patch func(*sim.Config)
}

// runCases runs each case's variant of base in order, one batch each.
func (o Options) runCases(ctx context.Context, id string, base spec.Spec, cases []simCase) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cases))
	for i, c := range cases {
		s := base
		if c.mod != nil {
			c.mod(&s)
		}
		res, err := o.run(ctx, &s, c.patch)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s %q: %w", id, c.label, err)
		}
		out[i] = res
	}
	return out, nil
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 10
	}
	return o.Runs
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 4
	}
	return o.Seed
}

func (o Options) traceDuration() int64 {
	if o.TraceDuration > 0 {
		return o.TraceDuration
	}
	if o.Quick {
		return 20 * trace.Minute
	}
	return 2 * trace.Hour
}

// Result is one regenerated figure.
type Result struct {
	// ID is the figure identifier (fig1a ... fig10, tbl-rates,
	// tbl-claims).
	ID string
	// Paper describes what the paper's version of the figure shows.
	Paper string
	// Figure holds the regenerated series.
	Figure plot.Figure
	// Metrics are the headline numbers for the EXPERIMENTS.md
	// paper-vs-measured table, keyed by a short name.
	Metrics map[string]float64
}

// builder regenerates one figure. Builders observe ctx between
// simulation ticks, so a cancelled context aborts a figure mid-run.
type builder func(context.Context, Options) (*Result, error)

// registry maps figure IDs to builders in presentation order.
func registry() []struct {
	id string
	fn builder
} {
	return []struct {
		id string
		fn builder
	}{
		{"fig1a", Fig1a},
		{"fig1b", Fig1b},
		{"fig2", Fig2},
		{"fig3a", Fig3a},
		{"fig3b", Fig3b},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"fig8a", Fig8a},
		{"fig8b", Fig8b},
		{"fig9a", Fig9a},
		{"fig9b", Fig9b},
		{"fig10", Fig10},
		{"tbl-rates", TableRates},
		{"tbl-claims", TableClaims},
		{"collateral", Collateral},
		{"abl-targeting", AblTargeting},
		{"abl-queue", AblQueueVsDrop},
		{"abl-weights", AblLinkWeights},
		{"abl-patch", AblPatchInfected},
		{"abl-probe", AblProbeFirst},
		{"abl-topology", AblTopology},
		{"abl-hybrid", AblHybridWindow},
		{"fault-detector", FaultDetector},
	}
}

// IDs returns all known experiment IDs in order.
func IDs() []string {
	reg := registry()
	out := make([]string, len(reg))
	for i, r := range reg {
		out[i] = r.id
	}
	return out
}

// RunContext regenerates one figure by ID. Cancelling ctx aborts the
// figure's simulations between ticks and returns ctx's error.
func RunContext(ctx context.Context, id string, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range registry() {
		if r.id == id {
			opt.figID = id
			opt.nets = spec.NewNetCache(0)
			if opt.Checkpoint != "" || opt.Resume != "" {
				// Fresh batch numbering per figure invocation, so a
				// figure-level retry rebuilds the same checkpoint layout.
				opt.ckptSeq = new(atomic.Int32)
			}
			return r.fn(ctx, opt)
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiment: unknown id %q (known: %v)", id, known)
}

// RunAllStats regenerates the given figures (all of IDs() when ids is
// nil) concurrently on a bounded runner.Pool, configured with ropts
// (runner.WithJobs bounds the figure-level parallelism;
// runner.WithProgress observes per-figure completion), and returns the
// figure-level runner.Stats alongside the results. Results are returned
// in the order of ids regardless of completion order. The first failing
// figure aborts the batch; a cancelled ctx aborts in-flight figures
// between simulation ticks and returns ctx's error. With
// runner.WithKeepGoing the batch degrades gracefully instead: a figure
// that fails (after any runner.WithRetry attempts) leaves a nil slot in
// the results and an entry in Stats.Failures; only a batch where every
// figure failed returns an error.
//
// Figure-level workers multiply with Options.Jobs (the per-figure
// replica pool): with F figure workers each averaging over J replica
// workers, up to F×J simulations run at once. The default Options.Jobs
// of GOMAXPROCS is fine when figures are regenerated one at a time;
// callers fanning out across figures should set Options.Jobs low
// (cmd/figures uses 1) and let the figure-level pool own the
// parallelism — whole figures are coarser, more evenly sized units.
func RunAllStats(ctx context.Context, ids []string, opt Options, ropts ...runner.Option) ([]*Result, runner.Stats, error) {
	if ids == nil {
		ids = IDs()
	}
	results := make([]*Result, len(ids))
	pool := runner.New(ropts...)
	stats, err := pool.Run(ctx, len(ids), func(ctx context.Context, i int) (runner.Report, error) {
		res, err := RunContext(ctx, ids[i], opt)
		if err != nil {
			return runner.Report{}, fmt.Errorf("experiment: %s: %w", ids[i], err)
		}
		results[i] = res
		rep := runner.Report{Ticks: figureTicks(res)}
		if opt.Metrics != nil {
			rep.Counters = opt.Metrics.Figure(ids[i])
		}
		return rep, nil
	})
	if err != nil {
		return nil, stats, err
	}
	if stats.Failed > 0 {
		ok := 0
		for _, r := range results {
			if r != nil {
				ok++
			}
		}
		if ok == 0 {
			f := stats.Failures[0]
			return nil, stats, fmt.Errorf("experiment: all %d figures failed; first: %w", len(ids), f.Err)
		}
	}
	return results, stats, nil
}

// figureTicks estimates the simulated ticks behind one figure result
// (series points × averaged runs) so RunAllStats reports a
// meaningful throughput. Analytic figures report their sample count.
func figureTicks(res *Result) int64 {
	var pts int64
	for _, s := range res.Figure.Series {
		pts += int64(len(s.Y))
	}
	return pts
}

// scenario is the base spec of a simulated figure: the paper's β
// random worm over topo, seeded from the options.
func (o Options) scenario(topo spec.Topology, ticks, initial int) spec.Spec {
	return spec.Spec{
		Format: spec.Format, Version: spec.Version,
		Topology: topo, Worm: spec.Worm{Kind: "random", Beta: simBeta},
		Ticks: ticks, InitialInfected: initial, Seed: o.seed(),
	}
}

// powerLaw is the shared 1000-node AS-like graph of the Section 5.4
// experiments (300 nodes under Quick), with the degree-ranked role
// split and the induced subnet partition. The paper used a
// BRITE-generated 1000-node power-law graph; we use preferential
// attachment with m=1, which gives the sparse, core-concentrated
// routing of an AS topology (nearly all inter-subnet shortest paths
// transit the top-degree core — the property the backbone-deployment
// result depends on).
func (o Options) powerLaw() spec.Topology {
	if o.Quick {
		return spec.Topology{Kind: "powerlaw", Nodes: 300}
	}
	return spec.Topology{Kind: "powerlaw", Nodes: 1000}
}

// enterprise is the explicit backbone/edge/subnet topology of Fig 5 and
// abl-topology: 4 backbones × 5 edge routers × 48 hosts (16 under
// Quick).
func (o Options) enterprise() spec.Topology {
	t := spec.Topology{Kind: "enterprise", Backbones: 4, EdgesPerBackbone: 5, HostsPerSubnet: 48}
	if o.Quick {
		t.HostsPerSubnet = 16
	}
	return t
}

// defense returns a one-entry defense stack.
func defense(d spec.Defense) func(*spec.Spec) {
	return func(s *spec.Spec) { s.Defenses = []spec.Defense{d} }
}

// Shared defense entries.
var (
	backboneRL = spec.Defense{Kind: "backbone", Rate: limitedLinkRate}
	// backboneCaps caps every backbone router at 40 packets/tick.
	backboneCaps = spec.Defense{Kind: "backbone_cap", HubCap: 40}
)

// hostRL filters a random fraction of the hosts to the model's
// β2 = 0.01.
func hostRL(frac float64) spec.Defense {
	return spec.Defense{Kind: "host", Fraction: frac, Rate: hostFilteredRate}
}

// Shared simulation parameters (see DESIGN.md §5 and the calibration
// notes in EXPERIMENTS.md).
const (
	simBeta          = 0.8  // the paper's β
	hostFilteredRate = 0.01 // the paper's β2
	congestedScans   = 10   // scan attempts/tick for the congestion figures
	dropTailQueue    = 50   // ns-2 default DropTail buffer
	unboundedQueue   = -1   // spec max_queue for unbounded link buffers
	limitedLinkRate  = 0.4  // packets/tick through a rate-limited link
	immunizeMu       = 0.05 // per-tick patch probability in the sims
)
