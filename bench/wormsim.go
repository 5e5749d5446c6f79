package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ratelimit"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/worm"
)

// Collateral-campus populations: the paper's §7 campus (999 normal, 17
// servers, 33 P2P, 79 infected hosts) at 40 times its size.
const (
	campusNormal   = 39960
	campusServers  = 680
	campusP2P      = 1320
	campusInfected = 3160
	campusHosts    = campusNormal + campusServers + campusP2P + campusInfected
)

// internetSpec is the internet-1m scenario: a ≈1.0M-node two-level AS
// internet in its growth phase under a backbone rate limit. The seed
// drives the epidemic; the graph is the same for every seed, because
// the graph sets how much work the epidemic does (after 80 ticks
// 40–47% of hosts are infected across graph seeds, within 0.1% across
// epidemic seeds on one graph), and a benchmark seed must not change
// the problem size.
func internetSpec(seed int64, ticks int) *spec.Spec {
	return &spec.Spec{
		Format: spec.Format, Version: spec.Version, Name: "internet-1m",
		Topology: spec.Topology{Kind: "twolevel", ASes: 4121, AttachM: 2, TransitFraction: 0.05, HostsPerStub: 256},
		Worm:     spec.Worm{Kind: "random", Beta: 0.8, ScansPerTick: 10},
		Defenses: []spec.Defense{{Kind: "backbone", Rate: 0.4}},
		Ticks:    ticks, Seed: seed, TopologySeed: 1,
		InitialInfected: 10040, MaxQueue: 50,
	}
}

// collateralSpec is the collateral-campus scenario: synthetic §7 trace
// traffic replayed through a Williamson throttle on every trace host.
func collateralSpec(seed int64, ticks int) *spec.Spec {
	return &spec.Spec{
		Format: spec.Format, Version: spec.Version, Name: "collateral-campus",
		Topology: spec.Topology{Kind: "enterprise", Backbones: 4, EdgesPerBackbone: 32, HostsPerSubnet: 360},
		Worm:     spec.Worm{Kind: "random", Beta: 0.8},
		Defenses: []spec.Defense{{Kind: "throttle", WorkingSet: 4, Period: 1, Hosts: campusHosts}},
		Ticks:    ticks, Seed: seed,
		Workload: &spec.Workload{
			Kind: "synthetic", TickMS: 1000, BlasterFraction: 0.6,
			Normal: campusNormal, Servers: campusServers, P2P: campusP2P, Infected: campusInfected,
		},
		Run: &spec.Run{Runs: 2, Jobs: 2},
	}
}

// wormsimWorkload drives one scenario spec through `wormsim -spec`.
// With replay set the run also passes -metrics, so the footer carries
// the engine counters, and the footer is held to the collateral
// inequality.
type wormsimWorkload struct {
	spec   func(seed int64, ticks int) *spec.Spec
	ticks  int
	replay bool
}

func (w wormsimWorkload) run(ctx context.Context, e *env, ticks int) (childRun, error) {
	data, err := w.spec(e.seed, ticks).Canonical()
	if err != nil {
		return childRun{}, err
	}
	path := filepath.Join(e.work, fmt.Sprintf("spec-%d.json", ticks))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return childRun{}, err
	}
	args := []string{"-spec", path}
	if w.replay {
		args = append(args, "-metrics", filepath.Join(e.work, "metrics.jsonl"))
	}
	return runChild(ctx, e.work, filepath.Join(e.bin, "wormsim"), args...)
}

// setup times the same scenario with a one-tick horizon: process start,
// topology, routing and engine construction, and one tick.
func (w wormsimWorkload) setup(ctx context.Context, e *env) (float64, error) {
	c, err := w.run(ctx, e, 1)
	return c.Wall, err
}

func (w wormsimWorkload) pass(ctx context.Context, e *env) (passResult, error) {
	c, err := w.run(ctx, e, w.ticks)
	if err != nil {
		return passResult{}, err
	}
	series, footer, err := splitSeries(c.Stdout)
	if err != nil {
		return passResult{}, err
	}
	p := passResult{
		wall: c.Wall, rssMB: c.RSSMB, jobs: []float64{c.Wall},
		digests: digests{"series": digest(series), "footer": digest(footer)},
	}
	if w.replay {
		p.problems = checkCollateral(footer)
	}
	return p, nil
}

// formatSeries renders a result exactly as wormsim prints a
// single-scenario run, so the traced pass can be held to the untraced
// digests.
func formatSeries(res *sim.Result) []byte {
	var b strings.Builder
	b.WriteString("# tick\tinfected\tever\timmunized\tbacklog\n")
	for i := range res.Infected {
		fmt.Fprintf(&b, "%d\t%.4f\t%.4f\t%.4f\t%d\n",
			i+1, res.Infected[i], res.EverInfected[i], res.Immunized[i], res.Backlog[i])
	}
	fmt.Fprintf(&b, "# t50=%.1f final=%.3f ever=%.3f\n",
		res.TimeToLevel(0.5), res.FinalInfected(), res.FinalEverInfected())
	if c := res.Counters; len(c) > 0 {
		fmt.Fprintf(&b, "# scans=%d throttled=%d generated=%d delivered=%d dropped=%d infections=%d\n",
			c["scan_attempts"], c["throttled_contacts"], c["packets_generated"],
			c["packets_delivered"], c["packets_dropped"], c["infections"])
		if bc := c["benign_contacts"]; bc > 0 {
			fmt.Fprintf(&b, "# benign=%d benign_throttled=%d collateral=%.4f\n",
				bc, c["benign_throttled"], float64(c["benign_throttled"])/float64(bc))
		}
	}
	return []byte(b.String())
}

// traced rebuilds the scenario in-process layer by layer — the same
// sim.Config the spec compiles to — and times each layer. Its averaged
// series must hash equal to the untraced pass.
func (w wormsimWorkload) traced(ctx context.Context, e *env, rec *recorder) (tracedResult, error) {
	start := time.Now()
	data, err := w.spec(e.seed, w.ticks).Canonical()
	if err != nil {
		return tracedResult{}, err
	}
	var s *spec.Spec
	if _, err := rec.time("spec.parse", 0, func() (err error) { s, err = spec.Parse(data); return err }); err != nil {
		return tracedResult{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var (
		g      *topology.Graph
		roles  []topology.Role
		subnet []int
		net    *sim.Net
	)
	_, err = rec.time("topology.build", 0, func() (err error) {
		g, roles, subnet, err = buildTopology(s)
		return err
	})
	if err != nil {
		return tracedResult{}, err
	}
	rec.time("routing.build", 0, func() error { net = sim.BuildNet(g); return nil })
	base, err := simConfig(s, g, roles, subnet, net)
	if err != nil {
		return tracedResult{}, err
	}
	runs := 1
	if s.Run != nil && s.Run.Runs > 0 {
		runs = s.Run.Runs
	}
	reps := make([]*replica, runs)
	for r := range reps {
		// MultiRunStats seeds replica r with the scenario seed plus r.
		reps[r] = newReplica(rec, base, base.Seed+int64(r))
		if _, err := rec.time("sim.new", 0, reps[r].build); err != nil {
			return tracedResult{}, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	var wg sync.WaitGroup
	errs := make([]error, runs)
	for r, rep := range reps {
		wg.Add(1)
		go func(r int, rep *replica) {
			defer wg.Done()
			errs[r] = rep.run(ctx)
		}(r, rep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return tracedResult{}, err
		}
	}

	res, counters := average(reps, base.Ticks)
	if w.replay {
		res.Counters = counters
	}
	series, footer, err := splitSeries(formatSeries(res))
	if err != nil {
		return tracedResult{}, err
	}
	wall := time.Since(start).Seconds()
	spans := rec.snapshot()
	ticks := durations(spans, "sim.tick")
	contactsS, allowS := total(spans, "trace.contacts"), total(spans, "ratelimit.allow")
	var contacts, calls, denied, queueMax int64
	backlog := 0
	for _, rep := range reps {
		backlog = max(backlog, rep.tally.Summary().PeakBacklog)
		contacts += rep.contacts
		calls += rep.allowCalls
		denied += rep.allowDenied
		queueMax = max(queueMax, rep.queueMax())
	}
	l := map[string]float64{
		"sim.bytes_per_host":        float64(after.HeapAlloc-min(before.HeapAlloc, after.HeapAlloc)) / float64(g.N()),
		"sim.tick_p50_ms":           1e3 * median(ticks),
		"sim.tick_p90_ms":           1e3 * percentile(ticks, 90),
		"sim.packets":               float64(counters["packets_generated"]),
		"sim.backlog_peak":          float64(backlog),
		"sim.engine_self_s":         sum(ticks) - contactsS - allowS,
		"trace.contacts_s":          contactsS,
		"trace.contacts":            float64(contacts),
		"ratelimit.allow_s":         allowS,
		"ratelimit.allow_calls":     float64(calls),
		"ratelimit.delay_queue_max": float64(queueMax),
	}
	if p := counters["packets_generated"]; p > 0 {
		l["sim.ns_per_packet"] = 1e9 * sum(ticks) / float64(p)
	}
	if calls > 0 {
		l["ratelimit.denied_ratio"] = float64(denied) / float64(calls)
	}
	if bc := counters["benign_contacts"]; bc > 0 {
		l["sim.collateral_ratio"] = float64(counters["benign_throttled"]) / float64(bc)
	}
	return tracedResult{wall: wall, digests: digests{"series": digest(series), "footer": digest(footer)}, layers: l}, nil
}

// seeds returns the spec's effective simulation and topology seeds: 0
// means 1, and a zero topology seed follows the simulation seed.
func seeds(s *spec.Spec) (seed, topo int64) {
	seed, topo = s.Seed, s.TopologySeed
	if seed == 0 {
		seed = 1
	}
	if topo == 0 {
		topo = seed
	}
	return seed, topo
}

// buildTopology materializes the spec's graph the way the spec compiler
// does, for the two kinds the scenarios use.
func buildTopology(s *spec.Spec) (*topology.Graph, []topology.Role, []int, error) {
	switch s.Topology.Kind {
	case "twolevel":
		_, topo := seeds(s)
		return topology.TwoLevel(topology.TwoLevelConfig{
			ASes: s.Topology.ASes, AttachM: s.Topology.AttachM,
			TransitFraction: s.Topology.TransitFraction, HostsPerStub: s.Topology.HostsPerStub,
		}, rand.New(rand.NewSource(topo)))
	case "enterprise":
		return topology.Hierarchical(topology.HierarchicalConfig{
			Backbones: s.Topology.Backbones, EdgesPer: s.Topology.EdgesPerBackbone,
			HostsPerSubnet: s.Topology.HostsPerSubnet,
		})
	}
	return nil, nil, nil, fmt.Errorf("traced pass: topology kind %q", s.Topology.Kind)
}

// simConfig lowers the benchmark's two scenarios onto sim.Config with
// the defaults the spec compiler applies: queue 50, the queueing
// policy, and one seed infection unless the trace names the infected.
func simConfig(s *spec.Spec, g *topology.Graph, roles []topology.Role, subnet []int, net *sim.Net) (sim.Config, error) {
	seed, _ := seeds(s)
	cfg := sim.Config{
		Graph: g, Roles: roles, Subnet: subnet, Net: net,
		Beta: s.Worm.Beta, ScansPerTick: s.Worm.ScansPerTick, Strategy: worm.NewRandomFactory(),
		InitialInfected: max(s.InitialInfected, 1), Ticks: s.Ticks, Seed: seed, MaxQueue: 50,
	}
	if s.MaxQueue != 0 {
		cfg.MaxQueue = s.MaxQueue
	}
	hosts := topology.NodesWithRole(roles, topology.RoleHost)
	for _, d := range s.Defenses {
		switch d.Kind {
		case "backbone":
			cfg.LimitedNodes = append(cfg.LimitedNodes, sim.DeployBackbone(roles)...)
			cfg.BaseRate = d.Rate
		case "throttle":
			ws, period := d.WorkingSet, d.Period
			cfg.HostLimiterNodes = append(cfg.HostLimiterNodes, hosts[:d.Hosts]...)
			cfg.HostLimiterFactory = func() ratelimit.ContactLimiter {
				l, err := ratelimit.NewWilliamsonThrottle(ws, period)
				if err != nil {
					panic(err) // spec.Parse validated these parameters
				}
				return l
			}
		default:
			return cfg, fmt.Errorf("traced pass: defense kind %q", d.Kind)
		}
	}
	if w := s.Workload; w != nil {
		gen := trace.GenConfig{
			Duration: int64(s.Ticks) * w.TickMS, Seed: seed,
			NormalClients: w.Normal, Servers: w.Servers, P2PClients: w.P2P, Infected: w.Infected,
			BlasterFraction: w.BlasterFraction, WormOnset: w.WormOnsetMS,
		}
		hostMap := make([]int32, gen.NumHosts())
		for i := range hostMap {
			hostMap[i] = int32(hosts[i])
		}
		tick := w.TickMS
		cfg.Replay = &sim.ReplayConfig{
			NewWorkload: func() (sim.Workload, error) { return trace.NewSyntheticReplayer(gen, tick) },
			Hosts:       hostMap,
			WormHosts:   gen.HostsOfClass(trace.ClassInfected),
		}
		cfg.InitialInfected = 0
	}
	return cfg, nil
}

// replica is one traced engine. Its config wraps the trace workload and
// every contact limiter in timers, and it is its own collector: each
// Tick closes one sim.tick span, with the workload and limiter time
// spent in that tick as its children. Only the engine's goroutine
// touches it while it runs.
type replica struct {
	rec   *recorder
	cfg   sim.Config
	eng   *sim.Engine
	res   *sim.Result
	tally *obs.Tally

	span    int       // this replica's sim.run span
	last    time.Time // end of the previous tick
	pending []timedCall
	// Limiter decisions this tick, how many of them were timed, and
	// their time.
	allowN, allowTimedN int64
	allowTimed          time.Duration

	contacts, allowCalls, allowDenied int64
	limiters                          []*timedLimiter
}

type timedCall struct{ start, end time.Time }

func newReplica(rec *recorder, base sim.Config, seed int64) *replica {
	r := &replica{rec: rec, cfg: base, tally: obs.NewTally()}
	r.cfg.Seed = seed
	r.cfg.Collector = r
	if f := base.HostLimiterFactory; f != nil {
		r.cfg.HostLimiterFactory = func() ratelimit.ContactLimiter {
			l := &timedLimiter{inner: f(), rep: r}
			r.limiters = append(r.limiters, l)
			return l
		}
	}
	if base.Replay != nil {
		rc := *base.Replay
		rc.NewWorkload = func() (sim.Workload, error) {
			w, err := base.Replay.NewWorkload()
			return &timedWorkload{inner: w, rep: r}, err
		}
		r.cfg.Replay = &rc
	}
	return r
}

func (r *replica) build() (err error) {
	r.eng, err = sim.New(r.cfg)
	return err
}

func (r *replica) run(ctx context.Context) error {
	r.span = r.rec.begin("sim.run", 0)
	r.last = time.Now()
	res, err := r.eng.RunContext(ctx)
	r.rec.end(r.span)
	r.res = res
	return err
}

// Tick implements obs.Collector: it closes this tick's span.
func (r *replica) Tick(m obs.TickMetrics) {
	now := time.Now()
	id := r.rec.add("sim.tick", r.span, r.last, now)
	for _, c := range r.pending {
		r.rec.add("trace.contacts", id, c.start, c.end)
	}
	if r.allowTimedN > 0 {
		est := time.Duration(float64(max(r.allowTimed, 0)) / float64(r.allowTimedN) * float64(r.allowN))
		r.rec.addAggregate("ratelimit.allow", id, r.last, est, r.allowN)
	}
	r.pending, r.allowN, r.allowTimedN, r.allowTimed = r.pending[:0], 0, 0, 0
	r.last = now
	r.tally.Tick(m)
}

// Event implements obs.Collector.
func (r *replica) Event(ev obs.Event) { r.tally.Event(ev) }

// queueMax is the longest delay queue among the replica's limiters —
// the engine never drains a Williamson throttle's queue.
func (r *replica) queueMax() int64 {
	var m int64
	for _, l := range r.limiters {
		if q, ok := l.inner.(interface{ QueueLen() int }); ok {
			m = max(m, int64(q.QueueLen()))
		}
	}
	return m
}

// timedWorkload times each tick's contact batch.
type timedWorkload struct {
	inner sim.Workload
	rep   *replica
}

func (w *timedWorkload) Contacts(tick int) ([]trace.Contact, error) {
	start := time.Now()
	c, err := w.inner.Contacts(tick)
	w.rep.pending = append(w.rep.pending, timedCall{start, time.Now()})
	w.rep.contacts += int64(len(c))
	return c, err
}

func (w *timedWorkload) Skip(n int) (int64, error) { return w.inner.Skip(n) }

// allowSample is how often a limiter decision is timed. A decision
// costs tens of nanoseconds, about what reading the clock twice costs,
// so timing every one would double the limiter's share; the sampled
// mean, less the clock's own cost, is scaled to every call.
const allowSample = 64

// timedLimiter counts every limiter decision and times a sample.
type timedLimiter struct {
	inner ratelimit.ContactLimiter
	rep   *replica
}

func (l *timedLimiter) Allow(now int64, dst ratelimit.IP) bool {
	r := l.rep
	var ok bool
	if r.allowN%allowSample == 0 {
		start := time.Now()
		ok = l.inner.Allow(now, dst)
		r.allowTimed += time.Since(start) - clockCost
		r.allowTimedN++
	} else {
		ok = l.inner.Allow(now, dst)
	}
	r.allowN++
	r.allowCalls++
	if !ok {
		r.allowDenied++
	}
	return ok
}

// average folds the replicas' series exactly as sim.MultiRunStats does
// and sums their counters.
func average(reps []*replica, ticks int) (*sim.Result, map[string]int64) {
	agg := &sim.Result{
		Infected: make([]float64, ticks), EverInfected: make([]float64, ticks),
		Immunized: make([]float64, ticks), Backlog: make([]int, ticks),
	}
	counters := make(map[string]int64)
	for _, rep := range reps {
		for i := 0; i < ticks; i++ {
			agg.Infected[i] += rep.res.Infected[i]
			agg.EverInfected[i] += rep.res.EverInfected[i]
			agg.Immunized[i] += rep.res.Immunized[i]
			agg.Backlog[i] += rep.res.Backlog[i]
		}
		for k, v := range rep.tally.Summary().Counters() {
			counters[k] += v
		}
	}
	inv := 1 / float64(len(reps))
	for i := 0; i < ticks; i++ {
		agg.Infected[i] *= inv
		agg.EverInfected[i] *= inv
		agg.Immunized[i] *= inv
		agg.Backlog[i] /= len(reps)
	}
	return agg, counters
}
