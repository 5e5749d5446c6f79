package experiment

import (
	"context"

	"repro/internal/plot"
	"repro/internal/ratelimit"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Collateral regenerates the collateral-damage contrast behind the
// paper's Section 7 argument: rate limits are only defensible if they
// contain the worm *without* strangling the normal, server, and P2P
// hosts sharing the limiters. The figure replays the calibrated
// synthetic traffic profile (trace.Gen's four host classes, with
// Blaster/Welchia scanners) through the engine's workload seam, so
// benign flows and worm scans compete for the same per-host limiter
// credits, and contrasts two limiter designs:
//
//   - "Host contact throttle": the working-set throttle of the host
//     defense deployments (Williamson-style, working set 4). The
//     engine never releases a denied contact later, so a "throttle"
//     lowers to the working set alone (ratelimit.WorkingSet, no delay
//     queue): once it fills, every contact outside it is blocked —
//     maximal containment, and maximal collateral.
//   - "Edge probe window": a sliding distinct-destination window —
//     the probe counter an edge monitor keeps per host. Two
//     parameterizations: the paper's derived per-host limit (4 new
//     destinations per 5 s, the 99.9th percentile of measured normal
//     traffic), and a tight 1-per-5 s variant pushed toward the
//     throttle's containment for the matched comparison.
//
// Collateral damage is the fraction of benign connection attempts the
// limiter falsely throttles (benign_throttled / benign_contacts). The
// paper's Section 7 claim shows up as the derived-limit window
// slowing the epidemic several-fold while leaving most benign traffic
// untouched; the matched comparison shows the probe window buying its
// containment at a lower false-throttle rate than the working-set
// throttle.
func Collateral(ctx context.Context, opt Options) (*Result, error) {
	topo := spec.Topology{Kind: "enterprise", Backbones: 2, EdgesPerBackbone: 4, HostsPerSubnet: 144}
	w := spec.Workload{
		Kind:   "synthetic",
		Normal: trace.PaperNormalClients, Servers: trace.PaperServers,
		P2P: trace.PaperP2PClients, Infected: trace.PaperInfected,
		BlasterFraction: 0.6,
	}
	if opt.Quick {
		topo = spec.Topology{Kind: "enterprise", Backbones: 1, EdgesPerBackbone: 2, HostsPerSubnet: 72}
		w.Normal, w.Servers, w.P2P, w.Infected = 120, 4, 8, 12
	}
	// The replay decides who scans and when; the worm's β goes unused.
	base := opt.scenario(topo, int(opt.collateralTicks()), 0)
	base.MaxQueue, base.Workload = dropTailQueue, &w
	hosts := w.Normal + w.Servers + w.P2P + w.Infected
	// The edge probe windows have no spec kind: they replace the
	// limiter on the same trace hosts a throttle would cover.
	window := func(max int, span int64) func(*sim.Config) {
		return func(c *sim.Config) {
			c.HostLimiterNodes = topology.NodesWithRole(c.Roles, topology.RoleHost)[:hosts]
			c.HostLimiterFactory = func() ratelimit.ContactLimiter {
				l, err := ratelimit.NewSlidingUniqueIPWindow(max, span)
				if err != nil {
					panic(err)
				}
				return l
			}
		}
	}
	cases := []simCase{
		{label: "No rate limiting"},
		{label: "Host contact throttle (WS=4)", mod: defense(spec.Defense{Kind: "throttle", WorkingSet: 4, Period: 1, Hosts: hosts})},
		{label: "Edge probe window (derived, 4/5s)", patch: window(4, 5)},
		{label: "Edge probe window (tight, 1/5s)", patch: window(1, 5)},
	}
	keys := []string{"none", "host", "edge", "edge_tight"}
	res, err := opt.runCases(ctx, "collateral", base, cases)
	if err != nil {
		return nil, err
	}
	fig := plot.Figure{
		Title:  "Collateral damage: trace-replay workload under contact rate limits",
		XLabel: "time (ticks = trace seconds)",
		YLabel: "fraction infected",
	}
	metrics := make(map[string]float64)
	for i, c := range cases {
		r, key := res[i], keys[i]
		fig.Series = append(fig.Series, simSeries(c.label, r.Infected))
		metrics["t50_"+key] = r.TimeToLevel(0.5)
		metrics["final_"+key] = r.Infected[len(r.Infected)-1]
		if bc := r.Counters["benign_contacts"]; bc > 0 {
			metrics["collateral_"+key] = float64(r.Counters["benign_throttled"]) / float64(bc)
		}
	}
	return &Result{
		ID:      "collateral",
		Paper:   "Section 7: derived limits slow the worm while normal/server/P2P hosts stay below them",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// collateralTicks is the replay horizon: one engine tick per trace
// second, long enough for the trace-rate epidemic to saturate under
// no defense.
func (o Options) collateralTicks() int64 {
	if o.Quick {
		return 180
	}
	return 600
}
