// Cross-module integration tests: the packet-level simulator, the
// analytical models, and the routing measurements must tell one
// consistent story.
package repro_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/worm"
)

// The backbone deployment's measured path coverage α, plugged into the
// paper's Equation 6, must predict the right direction and rough
// magnitude of the simulated slowdown: t50 ratio ≈ 1/(1−α) when the
// limited links pass almost nothing, less when they still leak.
func TestSimulatedBackboneSlowdownVsModelAlpha(t *testing.T) {
	g, err := topology.BarabasiAlbert(500, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.Build(g)
	alpha, err := tab.PathCoverage(topology.NodesWithRole(roles, topology.RoleBackbone))
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0.7 {
		t.Fatalf("backbone coverage %v too low for the premise", alpha)
	}

	base := sim.Config{
		Graph: g, Roles: roles, Beta: 0.8,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 3, Ticks: 200, Seed: 9,
		ScansPerTick: 10, MaxQueue: 50, BaseRate: 0.4,
	}
	open, _, err := sim.MultiRun(context.Background(), base, 5)
	if err != nil {
		t.Fatal(err)
	}
	limited := base
	limited.LimitedNodes = sim.DeployBackbone(roles)
	res, _, err := sim.MultiRun(context.Background(), limited, 5)
	if err != nil {
		t.Fatal(err)
	}
	simSlowdown := res.TimeToLevel(0.5) / open.TimeToLevel(0.5)
	modelSlowdown := 1 / (1 - alpha) // Equation 6's λ = β(1−α)
	if math.IsNaN(simSlowdown) {
		t.Fatal("limited run never reached 50%")
	}
	// The limited links still pass 0.4 pkt/tick, so the simulator cannot
	// exceed the model's hard-quarantine bound and should get a
	// meaningful fraction of the way there.
	if simSlowdown < 1.5 {
		t.Errorf("sim slowdown %v too weak given α=%v", simSlowdown, alpha)
	}
	if simSlowdown > 3*modelSlowdown {
		t.Errorf("sim slowdown %v exceeds the model bound %v implausibly",
			simSlowdown, modelSlowdown)
	}
}

// The simulated star with a hub forwarding cap must follow the HubRL
// model's regime structure: early growth at the worm's own rate, then a
// long node-limited phase whose duration scales like N/cap.
func TestStarSimVsHubModel(t *testing.T) {
	const n = 150
	g, err := topology.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	const hubCap = 2
	cfg := sim.Config{
		Graph: g, Beta: 0.8, Strategy: worm.NewRandomFactory(),
		InitialInfected: 1, Ticks: 400, Seed: 5,
		NodeCaps: map[int]int{topology.Hub: hubCap},
	}
	res, _, err := sim.MultiRun(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := model.HubRL{Beta: hubCap, Gamma: 0.8, N: n, I0: 1}
	simT50 := res.TimeToLevel(0.5)
	modelT50 := m.TimeToLevel(0.5)
	if math.IsNaN(simT50) {
		t.Fatal("sim never reached 50%")
	}
	// The sim wastes hub budget on duplicate targets, so it runs slower
	// than the model, but within a small factor.
	ratio := simT50 / modelT50
	if ratio < 0.8 || ratio > 4 {
		t.Errorf("sim/model t50 ratio = %v (sim %v, model %v)", ratio, simT50, modelT50)
	}
}

// Trace pipeline round trip: generate → serialize → parse → analyze must
// agree with in-memory analysis, and the derived limit must actually
// leave ≥ 99.9% of windows unaffected when re-applied.
func TestTracePipelineConsistency(t *testing.T) {
	cfg := trace.GenConfig{
		Duration: 10 * trace.Minute, Seed: 5,
		NormalClients: 50, Servers: 2, P2PClients: 4, Infected: 4,
		BlasterFraction: 0.5,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	normal := cfg.HostsOfClass(trace.ClassNormal)
	inMem, err := trace.AnalyzeAggregate(tr, normal, 5*trace.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reread, err := trace.AnalyzeAggregate(parsed, normal, 5*trace.Second)
	if err != nil {
		t.Fatal(err)
	}
	if inMem.All.Quantile(0.999) != reread.All.Quantile(0.999) {
		t.Errorf("re-read vs in-memory P99.9 differ: %d vs %d",
			inMem.All.Quantile(0.999), reread.All.Quantile(0.999))
	}
	limit := inMem.All.Quantile(0.999)
	im, err := trace.EvaluateLimit(tr, normal, 5*trace.Second, limit, trace.RefAll)
	if err != nil {
		t.Fatal(err)
	}
	if f := im.AffectedWindowFraction(); f > 0.001+1e-9 {
		t.Errorf("limit at P99.9 affects %v of windows, want <= 0.001", f)
	}
}

// Fitting the logistic to a simulated open epidemic recovers an
// effective exponent in the ballpark of the configured β, and the
// recorded genealogy's structure matches the epidemic's shape.
func TestFittedExponentAndGenealogy(t *testing.T) {
	g, err := topology.BarabasiAlbert(400, 1, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Graph: g, Beta: 0.8, Strategy: worm.NewRandomFactory(),
		InitialInfected: 2, Ticks: 80, Seed: 3,
		RecordInfections: true,
	}
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	ts := make([]float64, len(res.Infected))
	for i := range ts {
		ts[i] = float64(i + 1)
	}
	fit, err := model.FitLogistic(ts, res.Infected, 0.03, 0.9)
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	// Per-hop delivery latency spreads each infection over ~3-4 ticks,
	// so the realized exponent sits below β but well above β/4.
	if fit.Lambda < 0.8/4 || fit.Lambda > 0.8*1.5 {
		t.Errorf("fitted λ = %v for β = 0.8", fit.Lambda)
	}
	if fit.R2 < 0.9 {
		t.Errorf("R² = %v, want a clean logistic growth phase", fit.R2)
	}
	stats := sim.AnalyzeTree(res)
	if stats.Total < 390 {
		t.Fatalf("epidemic incomplete: %d infected", stats.Total)
	}
	// Generations: N from 2 seeds needs >= log2(400/2) ≈ 8 levels even
	// for a perfect binary tree; random scanning is far from perfect.
	if stats.MaxDepth < 6 {
		t.Errorf("max depth %d too shallow", stats.MaxDepth)
	}
	top := sim.TopSpreaders(res, 1)
	if len(top) != 1 || top[0].Victims < 3 {
		t.Errorf("top spreader %+v implausible for a saturating epidemic", top)
	}
}

// The host-RL analytic model and a scan-rate-override simulation agree
// on the *relative* slowdown across deployment fractions (the linear-
// slowdown law), even though absolute timescales differ.
func TestHostRLLinearLawSimVsModel(t *testing.T) {
	g, err := topology.BarabasiAlbert(300, 1, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(q float64) float64 {
		hosts, err := sim.DeployHostFraction(g, nil, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := make(map[int]float64, len(hosts))
		for _, h := range hosts {
			o[h] = 0.01
		}
		cfg := sim.Config{
			Graph: g, Beta: 0.8, Strategy: worm.NewRandomFactory(),
			InitialInfected: 3, Ticks: 400, Seed: 2,
			ScanRateOverride: o,
		}
		res, _, err := sim.MultiRun(context.Background(), cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeToLevel(0.5)
	}
	t0 := run(0)
	t50 := run(0.5)
	t80 := run(0.8)
	simRatio50 := t50 / t0
	simRatio80 := t80 / t0
	m := func(q float64) float64 {
		hm := model.HostRL{Q: q, Beta1: 0.8, Beta2: 0.01, N: 300, I0: 3}
		return hm.TimeToLevel(0.5)
	}
	modelRatio50 := m(0.5) / m(0)
	modelRatio80 := m(0.8) / m(0)
	// The simulator carries a constant multi-hop delivery latency that
	// the model lacks, which dilutes its slowdown ratios; accept the
	// model ratio attenuated by up to the latency share but preserved in
	// ordering.
	if simRatio50 < modelRatio50/2.5 || simRatio50 > modelRatio50*1.5 {
		t.Errorf("q=0.5 slowdown: sim %v vs model %v", simRatio50, modelRatio50)
	}
	if simRatio80 < modelRatio80/2.5 || simRatio80 > modelRatio80*1.5 {
		t.Errorf("q=0.8 slowdown: sim %v vs model %v", simRatio80, modelRatio80)
	}
	if !(simRatio80 > simRatio50 && simRatio50 > 1) {
		t.Errorf("slowdowns not ordered: %v %v", simRatio50, simRatio80)
	}
}
