package experiment

import (
	"context"
	"fmt"

	"repro/internal/plot"
	"repro/internal/ratelimit"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/worm"
)

// Ablation experiments: each probes one design choice DESIGN.md §5
// calls out. They are registered alongside the paper figures so
// cmd/figures and the benchmarks share one implementation.

// ablationSimBase is the shared congested-simulation configuration.
func ablationSimBase(g *topology.Graph, roles []topology.Role, subnet []int, opt Options) sim.Config {
	return sim.Config{
		Graph: g, Roles: roles, Subnet: subnet,
		Beta: simBeta, ScansPerTick: congestedScans, MaxQueue: dropTailQueue,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 5, Ticks: 150, Seed: opt.seed() + 7,
	}
}

// AblTargeting compares target-selection strategies at a fixed contact
// rate on the open network.
func AblTargeting(ctx context.Context, opt Options) (*Result, error) {
	g, roles, subnet, err := powerLawTopology(opt)
	if err != nil {
		return nil, err
	}
	lp, err := worm.NewLocalPreferentialFactory(0.8)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-targeting: %w", err)
	}
	hit := make([]int, 0, g.N()/10)
	for i := 0; i < g.N(); i += 10 {
		hit = append(hit, i)
	}
	hl, err := worm.NewHitListFactory(hit)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-targeting: %w", err)
	}
	cases := []struct {
		name string
		f    worm.Factory
	}{
		{"random", worm.NewRandomFactory()},
		{"localpref", lp},
		{"sequential", worm.NewSequentialFactory()},
		{"hitlist", hl},
	}
	fig := plot.Figure{
		Title:  "Ablation: targeting strategy at equal contact rate",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for _, cse := range cases {
		cfg := ablationSimBase(g, roles, subnet, opt)
		cfg.Ticks = 250
		cfg.Strategy = cse.f
		res, err := opt.multiRun(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-targeting %q: %w", cse.name, err)
		}
		fig.Series = append(fig.Series, simSeries(cse.name, res.Infected))
		metrics["t10_"+cse.name] = res.TimeToLevel(0.1)
		metrics["t50_"+cse.name] = res.TimeToLevel(0.5)
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
	g, roles, subnet, err := powerLawTopology(opt)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: queue vs drop at rate-limited links (backbone RL)",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for _, cse := range []struct {
		name   string
		policy sim.QueuePolicy
	}{{"queue", sim.PolicyQueue}, {"drop", sim.PolicyDrop}} {
		cfg := ablationSimBase(g, roles, subnet, opt)
		cfg.Ticks = 250
		cfg.LimitedNodes = sim.DeployBackbone(roles)
		cfg.BaseRate = limitedLinkRate
		cfg.Policy = cse.policy
		res, err := opt.multiRun(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-queue %q: %w", cse.name, err)
		}
		fig.Series = append(fig.Series, simSeries(cse.name, res.Infected))
		metrics["t50_"+cse.name] = res.TimeToLevel(0.5)
		maxBacklog := 0
		for _, q := range res.Backlog {
			if q > maxBacklog {
				maxBacklog = q
			}
		}
		metrics["backlog_"+cse.name] = float64(maxBacklog)
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
	g, roles, subnet, err := powerLawTopology(opt)
	if err != nil {
		return nil, err
	}
	weights, err := routing.NewStructural(g, routing.EnumerateLinks(g)).LinkWeights(g)
	if err != nil {
		return nil, fmt.Errorf("experiment: abl-weights: %w", err)
	}
	fig := plot.Figure{
		Title:  "Ablation: uniform vs routing-table-weighted link budgets",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for _, cse := range []struct {
		name string
		w    map[routing.LinkID]float64
	}{{"uniform", nil}, {"weighted", weights}} {
		cfg := ablationSimBase(g, roles, subnet, opt)
		cfg.Ticks = 250
		cfg.LimitedNodes = sim.DeployBackbone(roles)
		cfg.BaseRate = limitedLinkRate
		cfg.LinkWeights = cse.w
		res, err := opt.multiRun(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-weights %q: %w", cse.name, err)
		}
		fig.Series = append(fig.Series, simSeries(cse.name, res.Infected))
		metrics["t50_"+cse.name] = res.TimeToLevel(0.5)
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
	g, roles, subnet, err := powerLawTopology(opt)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: immunizing infected hosts too vs susceptible-only",
		XLabel: "time (ticks)",
		YLabel: "fraction currently infected",
	}
	metrics := make(map[string]float64)
	for _, cse := range []struct {
		name    string
		susOnly bool
	}{{"patch_all", false}, {"patch_susceptible_only", true}} {
		cfg := ablationSimBase(g, roles, subnet, opt)
		cfg.ScansPerTick = 1
		cfg.Ticks = 200
		cfg.Immunize = &sim.Immunization{
			StartTick: -1, StartLevel: 0.2, Mu: immunizeMu, SusceptibleOnly: cse.susOnly,
		}
		res, err := opt.multiRun(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-patch %q: %w", cse.name, err)
		}
		fig.Series = append(fig.Series, simSeries(cse.name, res.Infected))
		metrics["ever_"+cse.name] = res.FinalEverInfected()
		metrics["final_"+cse.name] = res.FinalInfected()
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
	g, roles, subnet, err := powerLawTopology(opt)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Ablation: direct exploit vs Welchia-style probe-first",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for _, rl := range []bool{false, true} {
		for _, probe := range []bool{false, true} {
			cfg := ablationSimBase(g, roles, subnet, opt)
			cfg.Ticks = 250
			cfg.ProbeFirst = probe
			name := "direct"
			if probe {
				name = "probe"
			}
			if rl {
				cfg.LimitedNodes = sim.DeployBackbone(roles)
				cfg.BaseRate = limitedLinkRate
				name += "_backboneRL"
			}
			res, err := opt.multiRun(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment: abl-probe %q: %w", name, err)
			}
			fig.Series = append(fig.Series, simSeries(name, res.Infected))
			metrics["t50_"+name] = res.TimeToLevel(0.5)
		}
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
	type topoCase struct {
		name   string
		graph  *topology.Graph
		roles  []topology.Role
		subnet []int
	}
	var cases []topoCase
	{
		g, roles, subnet, err := powerLawTopology(opt)
		if err != nil {
			return nil, err
		}
		cases = append(cases, topoCase{"ba", g, roles, subnet})
	}
	{
		ases, hosts := 120, 8
		if opt.Quick {
			ases, hosts = 40, 6
		}
		g, roles, subnet, err := topology.TwoLevel(topology.TwoLevelConfig{
			ASes: ases, AttachM: 1, TransitFraction: 0.08, HostsPerStub: hosts,
		}, newRand(opt.seed()))
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-topology: %w", err)
		}
		cases = append(cases, topoCase{"twolevel", g, roles, subnet})
	}
	{
		per := 48
		if opt.Quick {
			per = 16
		}
		g, roles, subnet, err := topology.Hierarchical(topology.HierarchicalConfig{
			Backbones: 4, EdgesPer: 5, HostsPerSubnet: per,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-topology: %w", err)
		}
		cases = append(cases, topoCase{"hier", g, roles, subnet})
	}
	fig := plot.Figure{
		Title:  "Ablation: backbone-RL slowdown across topology families",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for _, tc := range cases {
		open := ablationSimBase(tc.graph, tc.roles, tc.subnet, opt)
		open.Ticks = 250
		resOpen, err := opt.multiRun(ctx, open)
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-topology %q: %w", tc.name, err)
		}
		limited := open
		limited.LimitedNodes = sim.DeployBackbone(tc.roles)
		limited.BaseRate = limitedLinkRate
		resLim, err := opt.multiRun(ctx, limited)
		if err != nil {
			return nil, fmt.Errorf("experiment: abl-topology %q: %w", tc.name, err)
		}
		fig.Series = append(fig.Series,
			simSeries(tc.name+" open", resOpen.Infected),
			simSeries(tc.name+" backboneRL", resLim.Infected))
		metrics["slowdown_"+tc.name] = resLim.TimeToLevel(0.5) / resOpen.TimeToLevel(0.5)
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
