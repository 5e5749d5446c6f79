package experiment

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/plot"
	"repro/internal/ratelimit"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/worm"
)

// Ablation experiments: each probes one design choice DESIGN.md §5
// calls out. They are registered alongside the paper figures so
// cmd/figures and the benchmarks share one implementation.

// ablationBase is the shared congested-simulation spec over topo: the
// simulation seed is offset from the topology seed, so the ablations
// draw different epidemics on the figures' graphs.
func (o Options) ablationBase(topo spec.Topology, ticks int) spec.Spec {
	s := o.scenario(topo, ticks, 5)
	s.Worm.ScansPerTick, s.MaxQueue = congestedScans, dropTailQueue
	s.Seed, s.TopologySeed = o.seed()+7, o.seed()
	return s
}

// AblTargeting compares target-selection strategies at a fixed contact
// rate on the open network.
func AblTargeting(ctx context.Context, opt Options) (*Result, error) {
	base := opt.ablationBase(opt.powerLaw(), 250)
	n := base.Topology.Nodes
	hit := make([]int, 0, n/10)
	for i := 0; i < n; i += 10 {
		hit = append(hit, i)
	}
	hl, err := worm.NewHitListFactory(hit)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-targeting: %w", err)
	}
	cases := []simCase{
		{label: "random"},
		{label: "localpref", mod: func(s *spec.Spec) { s.Worm.Kind, s.Worm.LocalPref = "local", 0.8 }},
		{label: "sequential", mod: func(s *spec.Spec) { s.Worm.Kind = "sequential" }},
		// The hit-list worm has no spec kind.
		{label: "hitlist", patch: func(c *sim.Config) { c.Strategy = hl }},
	}
	res, err := opt.runCases(ctx, "abl-targeting", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: targeting strategy at equal contact rate",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t10_"+c.label] = res[i].TimeToLevel(0.1)
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
	}
	return &Result{
		ID:      "abl-targeting",
		Paper:   "Open network: random ≈ local-pref; sequential ~2.5x slower to 50%; a divided hit-list buys the fastest initial penetration (Warhol head start)",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// AblQueueVsDrop compares queueing with dropping at link capacity under
// backbone rate limiting.
func AblQueueVsDrop(ctx context.Context, opt Options) (*Result, error) {
	base := opt.ablationBase(opt.powerLaw(), 250)
	base.Defenses = []spec.Defense{backboneRL}
	cases := []simCase{
		{label: "queue"},
		{label: "drop", mod: func(s *spec.Spec) { s.Drop = true }},
	}
	res, err := opt.runCases(ctx, "abl-queue", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: queue vs drop at rate-limited links (backbone RL)",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
		metrics["backlog_"+c.label] = float64(slices.Max(res[i].Backlog))
	}
	return &Result{
		ID:      "abl-queue",
		Paper:   "Queueing vs dropping barely changes infection speed; queues only hold duplicates",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// AblLinkWeights compares uniform link budgets with the paper's
// routing-table-proportional weights.
func AblLinkWeights(ctx context.Context, opt Options) (*Result, error) {
	base := opt.ablationBase(opt.powerLaw(), 250)
	weighted := backboneRL
	weighted.Weighted = true
	cases := []simCase{
		{label: "uniform", mod: defense(backboneRL)},
		{label: "weighted", mod: defense(weighted)},
	}
	res, err := opt.runCases(ctx, "abl-weights", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: uniform vs routing-table-weighted link budgets",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
	}
	return &Result{
		ID:      "abl-weights",
		Paper:   "The deployment conclusion is insensitive to the link-weighting choice",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// AblPatchInfected compares the paper's patch-everyone immunization
// with patching susceptible hosts only.
func AblPatchInfected(ctx context.Context, opt Options) (*Result, error) {
	base := opt.ablationBase(opt.powerLaw(), 200)
	base.Worm.ScansPerTick = 1
	base.Immunize = &spec.Immunize{StartLevel: 0.2, Mu: immunizeMu}
	cases := []simCase{
		{label: "patch_all"},
		// Susceptible-only patching has no spec field.
		{label: "patch_susceptible_only", patch: func(c *sim.Config) { c.Immunize.SusceptibleOnly = true }},
	}
	res, err := opt.runCases(ctx, "abl-patch", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: immunizing infected hosts too vs susceptible-only",
		XLabel: "time (ticks)",
		YLabel: "fraction currently infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["ever_"+c.label] = res[i].FinalEverInfected()
		metrics["final_"+c.label] = res[i].FinalInfected()
	}
	return &Result{
		ID:      "abl-patch",
		Paper:   "The -µI term extinguishes the worm; susceptible-only patching leaves it endemic",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// AblProbeFirst compares direct-exploit and probe-first worms with and
// without backbone rate limiting.
func AblProbeFirst(ctx context.Context, opt Options) (*Result, error) {
	base := opt.ablationBase(opt.powerLaw(), 250)
	probe := func(s *spec.Spec) { s.Worm.ProbeFirst = true }
	limited := defense(backboneRL)
	cases := []simCase{
		{label: "direct"},
		{label: "probe", mod: probe},
		{label: "direct_backboneRL", mod: limited},
		{label: "probe_backboneRL", mod: func(s *spec.Spec) { probe(s); limited(s) }},
	}
	res, err := opt.runCases(ctx, "abl-probe", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: direct exploit vs Welchia-style probe-first",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
	}
	return &Result{
		ID:      "abl-probe",
		Paper:   "Probe-first worms expose three rate-limited crossings per infection instead of one",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// AblTopology re-runs the backbone comparison across topology families.
func AblTopology(ctx context.Context, opt Options) (*Result, error) {
	ases, hosts := 120, 8
	if opt.Quick {
		ases, hosts = 40, 6
	}
	topos := []struct {
		name string
		topo spec.Topology
	}{
		{"ba", opt.powerLaw()},
		{"twolevel", spec.Topology{Kind: "twolevel", ASes: ases, AttachM: 1, TransitFraction: 0.08, HostsPerStub: hosts}},
		{"hier", opt.enterprise()},
	}
	fig := plot.Figure{
		Title:  "Ablation: backbone-RL slowdown across topology families",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for _, tc := range topos {
		cases := []simCase{
			{label: tc.name + " open"},
			{label: tc.name + " backboneRL", mod: defense(backboneRL)},
		}
		res, err := opt.runCases(ctx, "abl-topology", opt.ablationBase(tc.topo, 250), cases)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series,
			simSeries(cases[0].label, res[0].Infected),
			simSeries(cases[1].label, res[1].Infected))
		metrics["slowdown_"+tc.name] = res[1].TimeToLevel(0.5) / res[0].TimeToLevel(0.5)
	}
	return &Result{
		ID:      "abl-topology",
		Paper:   "Backbone RL wins on every topology family, by 2.4-5.4x",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// AblHybridWindow compares a plain long window with the paper's
// proposed hybrid short+long scheme on worm clamping and legitimate
// stall.
func AblHybridWindow(ctx context.Context, opt Options) (*Result, error) {
	wormAllowed := func(l ratelimit.ContactLimiter) int {
		allowed := 0
		next := ratelimit.IP(1 << 20)
		for tick := int64(0); tick < 60; tick++ {
			for k := 0; k < 20; k++ {
				if l.Allow(tick, next) {
					allowed++
				}
				next++
			}
		}
		return allowed
	}
	stall := func(l ratelimit.ContactLimiter, warmup int) int {
		next := ratelimit.IP(1 << 24)
		for k := 0; k < warmup; k++ {
			l.Allow(0, next)
			next++
		}
		for tick := int64(1); tick < 120; tick++ {
			if l.Allow(tick, next) {
				return int(tick)
			}
		}
		return 120
	}
	long1, err := ratelimit.NewUniqueIPWindow(50, 60)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-hybrid: %w", err)
	}
	hybrid1, err := ratelimit.NewHybridWindow(5, 1, 50, 60)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-hybrid: %w", err)
	}
	long2, err := ratelimit.NewUniqueIPWindow(50, 60)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-hybrid: %w", err)
	}
	hybrid2, err := ratelimit.NewHybridWindow(5, 1, 50, 60)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-hybrid: %w", err)
	}
	metrics := map[string]float64{
		"worm_long":          float64(wormAllowed(long1)),
		"worm_hybrid":        float64(wormAllowed(hybrid1)),
		"stall_long_ticks":   float64(stall(long2, 50)),
		"stall_hybrid_ticks": float64(stall(hybrid2, 50)),
	}
	fig := plot.Figure{
		Title:  "Ablation: hybrid short+long windows vs plain long window",
		XLabel: "metric (1=worm admitted, 2=legit stall ticks)",
		YLabel: "value",
		Series: []plot.Series{
			{Label: "plain 50/60s", X: []float64{1, 2},
				Y: []float64{metrics["worm_long"], metrics["stall_long_ticks"]}},
			{Label: "hybrid 5/1s + 50/60s", X: []float64{1, 2},
				Y: []float64{metrics["worm_hybrid"], metrics["stall_hybrid_ticks"]}},
		},
	}
	return &Result{
		ID:      "abl-hybrid",
		Paper:   "Hybrid windows clamp the worm equally while eliminating legitimate-burst stalls",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}
