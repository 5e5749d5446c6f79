package experiment

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/plot"
	"repro/internal/spec"
)

// simSeries converts a per-tick fraction series to a plot series
// (tick i is time i+1).
func simSeries(label string, ys []float64) plot.Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return plot.Series{Label: label, X: xs, Y: ys}
}

// Fig1b regenerates Figure 1(b): the simulated 200-node star. Leaf
// filters cut a filtered leaf's scan rate to β2 = 0.01 (Williamson-style
// host throttling); hub rate limiting caps the hub's forwarding at 2
// packets/tick (the paper's hub rate 0.01 × N).
func Fig1b(ctx context.Context, opt Options) (*Result, error) {
	ticks := 150
	if opt.Quick {
		ticks = 60
	}
	base := opt.scenario(spec.Topology{Kind: "star", Nodes: 200}, ticks, 1)
	base.MaxQueue = unboundedQueue
	cases := []simCase{
		{label: "No RL"},
		{label: "10% leaf nodes RL", mod: defense(hostRL(0.1))},
		{label: "30% leaf nodes RL", mod: defense(hostRL(0.3))},
		{label: "Hub node RL", mod: defense(spec.Defense{Kind: "hub", HubCap: 2})},
	}
	res, err := opt.runCases(ctx, "fig1b", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Fig 1(b): simulated rate limiting on a 200-node star (avg of runs)",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t60_"+c.label] = res[i].TimeToLevel(0.6)
	}
	metrics["hub_over_leaf30"] = metrics["t60_Hub node RL"] / metrics["t60_30% leaf nodes RL"]
	return &Result{
		ID:      "fig1b",
		Paper:   "Simulated star: 10% leaf RL negligible, 30% slight, hub RL ~3x slower to 60%",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// Fig4 regenerates Figure 4: random-propagation worm on the 1000-node
// power-law graph under no RL / 5% host RL / edge-router RL / backbone
// RL. Congestion parameters (10 scans per tick against 0.4-packet/tick
// limited links with 50-packet DropTail buffers) are calibrated so the
// backbone deployment reproduces the paper's ~5x time-to-50% gap; see
// EXPERIMENTS.md. Edge-router RL limits every link of every edge
// router (spec kind edge_router), not only the subnet uplinks Fig 5
// limits.
func Fig4(ctx context.Context, opt Options) (*Result, error) {
	ticks := 150
	if opt.Quick {
		ticks = 100
	}
	base := opt.scenario(opt.powerLaw(), ticks, 5)
	base.Worm.ScansPerTick, base.MaxQueue = congestedScans, dropTailQueue
	cases := []simCase{
		{label: "No RL"},
		{label: "5% end host RL", mod: defense(hostRL(0.05))},
		{label: "Edge router RL", mod: defense(spec.Defense{Kind: "edge_router", Rate: limitedLinkRate})},
		{label: "Backbone RL", mod: defense(backboneRL)},
	}
	res, err := opt.runCases(ctx, "fig4", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Fig 4: simulated rate limiting on a 1000-node power-law graph",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
	}
	metrics["backbone_over_noRL"] = metrics["t50_Backbone RL"] / metrics["t50_No RL"]
	metrics["edge_over_noRL"] = metrics["t50_Edge router RL"] / metrics["t50_No RL"]
	metrics["host5_over_noRL"] = metrics["t50_5% end host RL"] / metrics["t50_No RL"]
	// Tie the simulation to Equation 6: the backbone case's model
	// carries the backbone's path coverage α measured on this topology.
	backbone := base
	backbone.Defenses = []spec.Defense{backboneRL}
	m, err := backbone.Model()
	if err != nil {
		return nil, fmt.Errorf("experiment: fig4: %w", err)
	}
	metrics["alpha_measured"] = m.(model.BackboneRL).Alpha
	return &Result{
		ID:      "fig4",
		Paper:   "Power-law sim: 5% host RL negligible, edge slight, backbone ~5x slower to 50%",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// Fig5 regenerates Figure 5: edge-router rate limiting against random
// vs local-preferential worms. This figure is about subnet structure,
// so it runs on the explicit enterprise topology (backbone mesh, edge
// routers, subnets) where "edge filter" unambiguously means the subnet
// uplink (spec kind edge): a local-preferential worm (95% of scans
// inside the subnet) barely notices the filters, while a random
// scanner's traffic almost always crosses two of them.
func Fig5(ctx context.Context, opt Options) (*Result, error) {
	ticks := 200
	if opt.Quick {
		ticks = 120
	}
	base := opt.scenario(opt.enterprise(), ticks, 10)
	base.Worm.ScansPerTick, base.MaxQueue = congestedScans, dropTailQueue
	edge := defense(spec.Defense{Kind: "edge", Rate: 0.2})
	local := func(s *spec.Spec) { s.Worm.Kind, s.Worm.LocalPref = "local", 0.95 }
	cases := []simCase{
		{label: "No RL random propagation"},
		{label: "Edge router RL for random propagation", mod: edge},
		{label: "No RL local preferential", mod: local},
		{label: "Edge router RL for local preferential", mod: func(s *spec.Spec) { local(s); edge(s) }},
	}
	res, err := opt.runCases(ctx, "fig5", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Fig 5: edge-router RL vs worm targeting strategy (simulation)",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
	}
	metrics["random_slowdown"] =
		metrics["t50_Edge router RL for random propagation"] / metrics["t50_No RL random propagation"]
	metrics["localpref_slowdown"] =
		metrics["t50_Edge router RL for local preferential"] / metrics["t50_No RL local preferential"]
	return &Result{
		ID:      "fig5",
		Paper:   "Edge RL slows random worms (~50%) but gives little benefit vs local-preferential worms",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// Fig6 regenerates Figure 6: a local-preferential worm under end-host
// (5%/30%) vs backbone rate limiting.
func Fig6(ctx context.Context, opt Options) (*Result, error) {
	ticks := 150
	if opt.Quick {
		ticks = 100
	}
	base := opt.scenario(opt.powerLaw(), ticks, 5)
	base.Worm = spec.Worm{Kind: "local", Beta: simBeta, LocalPref: 0.8, ScansPerTick: congestedScans}
	base.MaxQueue = dropTailQueue
	cases := []simCase{
		{label: "No RL"},
		{label: "5% end host RL", mod: defense(hostRL(0.05))},
		{label: "30% end host RL", mod: defense(hostRL(0.30))},
		{label: "Backbone RL", mod: defense(backboneRL)},
	}
	res, err := opt.runCases(ctx, "fig6", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Fig 6: local-preferential worm: host vs backbone RL (simulation)",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].Infected))
		metrics["t50_"+c.label] = res[i].TimeToLevel(0.5)
	}
	metrics["host30_over_noRL"] = metrics["t50_30% end host RL"] / metrics["t50_No RL"]
	metrics["backbone_over_noRL"] = metrics["t50_Backbone RL"] / metrics["t50_No RL"]
	return &Result{
		ID:      "fig6",
		Paper:   "Even 30% host RL is negligible for local-pref worms; backbone RL is substantially better",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// Fig8a regenerates Figure 8(a): simulated delayed immunization
// (µ = 0.05/tick) triggered when the infection reaches 20/50/80%,
// reporting the total ever-infected population.
func Fig8a(ctx context.Context, opt Options) (*Result, error) {
	ticks := 150
	if opt.Quick {
		ticks = 100
	}
	base := opt.scenario(opt.powerLaw(), ticks, 5)
	base.MaxQueue = unboundedQueue
	immunizeAt := func(level float64) func(*spec.Spec) {
		return func(s *spec.Spec) { s.Immunize = &spec.Immunize{StartLevel: level, Mu: immunizeMu} }
	}
	cases := []simCase{
		{label: "No immunization"},
		{label: "Immunization at 20%", mod: immunizeAt(0.2)},
		{label: "Immunization at 50%", mod: immunizeAt(0.5)},
		{label: "Immunization at 80%", mod: immunizeAt(0.8)},
	}
	res, err := opt.runCases(ctx, "fig8a", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Fig 8(a): simulated delayed immunization (total ever infected)",
		XLabel: "time (ticks)",
		YLabel: "fraction ever infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].EverInfected))
		metrics["ever_"+c.label] = res[i].FinalEverInfected()
	}
	return &Result{
		ID:      "fig8a",
		Paper:   "Total infected caps at ~80/90/98% for immunization starting at 20/50/80%",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// Fig8b regenerates Figure 8(b): the same immunization delays combined
// with backbone rate limiting (node caps on the core), starting at the
// wall-clock ticks where the *unlimited* epidemic reached 20/50/80%
// (≈20/25/30 here), as the paper does with its ticks 6/8/10.
func Fig8b(ctx context.Context, opt Options) (*Result, error) {
	ticks := 200
	if opt.Quick {
		ticks = 120
	}
	// Find the unlimited epidemic's times to 20/50/80%; the probe is
	// the figure's first batch.
	probe := opt.scenario(opt.powerLaw(), ticks, 5)
	probe.MaxQueue = unboundedQueue
	probeRes, err := opt.run(ctx, &probe, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig8b probe: %w", err)
	}
	base := probe
	base.Defenses = []spec.Defense{backboneCaps}
	metrics := make(map[string]float64)
	cases := []simCase{{label: "No immunization"}}
	for _, level := range []float64{0.2, 0.5, 0.8} {
		label := fmt.Sprintf("Immunization at %.0f%%-tick", level*100)
		start := max(int(probeRes.TimeToLevel(level)), 1)
		metrics["start_"+label] = float64(start)
		cases = append(cases, simCase{label: label, mod: func(s *spec.Spec) {
			s.Immunize = &spec.Immunize{StartTick: start, Mu: immunizeMu}
		}})
	}
	res, err := opt.runCases(ctx, "fig8b", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Fig 8(b): simulated delayed immunization with backbone RL (total ever infected)",
		XLabel: "time (ticks)",
		YLabel: "fraction ever infected",
	}
	for i, c := range cases {
		fig.Series = append(fig.Series, simSeries(c.label, res[i].EverInfected))
		metrics["ever_"+c.label] = res[i].FinalEverInfected()
	}
	return &Result{
		ID:      "fig8b",
		Paper:   "Backbone RL drops the 20%-start total infected by ~10% (80% -> 72% in the paper)",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}
