// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchtime=1x`), plus ablation
// benches for the design choices called out in DESIGN.md §5. Headline
// metrics are attached with b.ReportMetric so a bench run doubles as a
// paper-vs-measured report.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/worm"
)

// benchOpts balances fidelity and bench runtime: 5 simulation replicas
// (paper: 10) and a 45-minute synthetic trace.
func benchOpts() experiment.Options {
	return experiment.Options{Runs: 5, TraceDuration: 45 * trace.Minute}
}

// benchFigure regenerates one experiment per iteration and reports its
// headline metrics.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Run(id, benchOpts())
		if err != nil {
			b.Fatalf("Run(%q): %v", id, err)
		}
	}
	for k, v := range res.Metrics {
		b.ReportMetric(v, metricUnit(k))
	}
}

// metricUnit makes a metric key safe for testing.B.ReportMetric (no
// whitespace allowed).
func metricUnit(k string) string {
	return strings.Map(func(r rune) rune {
		if unicode.IsSpace(r) {
			return '_'
		}
		return r
	}, k)
}

func BenchmarkFig01aStarAnalytic(b *testing.B)    { benchFigure(b, "fig1a") }
func BenchmarkFig01bStarSim(b *testing.B)         { benchFigure(b, "fig1b") }
func BenchmarkFig02HostAnalytic(b *testing.B)     { benchFigure(b, "fig2") }
func BenchmarkFig03aEdgeAcross(b *testing.B)      { benchFigure(b, "fig3a") }
func BenchmarkFig03bEdgeWithin(b *testing.B)      { benchFigure(b, "fig3b") }
func BenchmarkFig04PowerLawSim(b *testing.B)      { benchFigure(b, "fig4") }
func BenchmarkFig05EdgeWormTypes(b *testing.B)    { benchFigure(b, "fig5") }
func BenchmarkFig06LocalPref(b *testing.B)        { benchFigure(b, "fig6") }
func BenchmarkFig07aImmunAnalytic(b *testing.B)   { benchFigure(b, "fig7a") }
func BenchmarkFig07bImmunRLAnalytic(b *testing.B) { benchFigure(b, "fig7b") }
func BenchmarkFig08aImmunSim(b *testing.B)        { benchFigure(b, "fig8a") }
func BenchmarkFig08bImmunRLSim(b *testing.B)      { benchFigure(b, "fig8b") }
func BenchmarkFig09aNormalCDF(b *testing.B)       { benchFigure(b, "fig9a") }
func BenchmarkFig09bInfectedCDF(b *testing.B)     { benchFigure(b, "fig9b") }
func BenchmarkFig10TraceRates(b *testing.B)       { benchFigure(b, "fig10") }
func BenchmarkRateTable(b *testing.B)             { benchFigure(b, "tbl-rates") }
func BenchmarkHeadlineClaims(b *testing.B)        { benchFigure(b, "tbl-claims") }

// benchTopology builds the shared ablation substrate.
func benchTopology(b *testing.B) (*topology.Graph, []topology.Role, []int) {
	b.Helper()
	g, err := topology.BarabasiAlbert(1000, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		b.Fatal(err)
	}
	return g, roles, topology.Subnets(g, roles)
}

func benchSimBase(g *topology.Graph, roles []topology.Role, subnet []int) sim.Config {
	return sim.Config{
		Graph: g, Roles: roles, Subnet: subnet,
		Beta: 0.8, ScansPerTick: 10, MaxQueue: 50,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 5, Ticks: 150, Seed: 11,
	}
}

func mustMultiRun(b *testing.B, cfg sim.Config, runs int) *sim.Result {
	b.Helper()
	res, err := sim.MultiRun(cfg, runs)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkAblationTargeting(b *testing.B) { benchFigure(b, "abl-targeting") }

func BenchmarkAblationQueueVsDrop(b *testing.B) { benchFigure(b, "abl-queue") }

func BenchmarkAblationLinkWeights(b *testing.B) { benchFigure(b, "abl-weights") }

func BenchmarkAblationPatchInfected(b *testing.B) { benchFigure(b, "abl-patch") }

func BenchmarkAblationProbeFirst(b *testing.B) { benchFigure(b, "abl-probe") }

// BenchmarkAblationWindows measures how the window size changes the
// 99.9th-percentile aggregate non-DNS contact limit (§7's burstiness
// observation: longer windows admit sublinear limits).
func BenchmarkAblationWindows(b *testing.B) {
	cfg := trace.DefaultGenConfig(45*trace.Minute, 42)
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	normal := cfg.HostsOfClass(trace.ClassNormal)
	for i := 0; i < b.N; i++ {
		for _, w := range []int64{trace.Second, 5 * trace.Second, 60 * trace.Second} {
			stats, err := trace.AnalyzeAggregate(tr, normal, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.NonDNS.Quantile(0.999)),
				"p999_nonDNS_"+secondsLabel(w))
		}
	}
}

func secondsLabel(w int64) string {
	switch w {
	case trace.Second:
		return "1s"
	case 5 * trace.Second:
		return "5s"
	default:
		return "60s"
	}
}

func BenchmarkAblationHybridWindow(b *testing.B) { benchFigure(b, "abl-hybrid") }

func BenchmarkAblationTopology(b *testing.B) { benchFigure(b, "abl-topology") }

// BenchmarkMultiRunParallel measures replica-batch scaling with the
// worker-pool job count: 8 congested replicas of the 1000-node
// backbone-limited run, averaged. The output series is identical for
// every job count (seeds derive from the replica index), so the
// sub-benchmarks differ only in wall time.
func BenchmarkMultiRunParallel(b *testing.B) {
	g, roles, subnet := benchTopology(b)
	cfg := benchSimBase(g, roles, subnet)
	cfg.Ticks = 100
	cfg.LimitedNodes = sim.DeployBackbone(roles)
	cfg.BaseRate = 0.4
	ctx := context.Background()
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.MultiRunContext(ctx, cfg, 8, runner.WithJobs(jobs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator performance: one
// 1000-node, 100-tick congested run per iteration, *including* engine
// construction (link enumeration, structural router). The
// construction-free per-tick numbers live in internal/sim's
// BenchmarkEngineTick (`make bench`), with reference values recorded
// in BENCH_engine.json.
func BenchmarkEngineThroughput(b *testing.B) {
	g, roles, subnet := benchTopology(b)
	cfg := benchSimBase(g, roles, subnet)
	cfg.Ticks = 100
	cfg.LimitedNodes = sim.DeployBackbone(roles)
	cfg.BaseRate = 0.4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		eng, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Ticks), "ns/tick")
}

// BenchmarkTraceAnalyzerThroughput measures analyzer records/second.
func BenchmarkTraceAnalyzerThroughput(b *testing.B) {
	cfg := trace.DefaultGenConfig(20*trace.Minute, 42)
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	normal := cfg.HostsOfClass(trace.ClassNormal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.AnalyzeAggregate(tr, normal, 5*trace.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Records)), "records")
}
