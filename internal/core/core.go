// Package core is the library facade: a Scenario ties together a
// topology, a worm, a rate-limiting defense deployment, and an optional
// immunization process, and can be run both as a packet-level
// simulation and as the paper's matching analytical model. It is the
// one-import entry point for downstream users; the specialised packages
// (model, sim, trace, ratelimit) remain available for finer control.
//
//	sc := core.Scenario{
//	    Topology: core.PowerLaw(1000),
//	    Worm:     core.RandomWorm(0.8),
//	    Defense:  core.BackboneRateLimit(0.4),
//	}
//	res, err := sc.Simulate(10)
//
// Long batches take a context and run options — either functional
// options or the declarative core.RunOptions struct (the two are
// interchangeable; the functional options are setters over RunOptions):
//
//	res, err := sc.SimulateContext(ctx, 10,
//	    core.WithJobs(4),
//	    core.WithTimeout(time.Minute),
//	    core.WithProgress(func(s runner.Stats) { ... }))
//
//	res, stats, err := sc.SimulateOptions(ctx, 10, core.RunOptions{
//	    Jobs: 4, Timeout: time.Minute,
//	})
//
// Scenarios also have a declarative file format — a versioned JSON/YAML
// spec compiled by internal/spec — which is how the CLIs accept
// scenarios from disk and how parameter sweeps are described.
package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/ratelimit"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/worm"
)

// TopologySpec describes how to build the network.
type TopologySpec struct {
	kind     string
	n        int
	m        int
	hier     topology.HierarchicalConfig
	twolevel topology.TwoLevelConfig
}

// Star specifies an n-node star (one hub, n-1 leaves).
func Star(n int) TopologySpec { return TopologySpec{kind: "star", n: n} }

// PowerLaw specifies an n-node preferential-attachment (AS-like) graph.
func PowerLaw(n int) TopologySpec { return TopologySpec{kind: "powerlaw", n: n, m: 1} }

// PowerLawM specifies a preferential-attachment graph with m edges per
// new node.
func PowerLawM(n, m int) TopologySpec { return TopologySpec{kind: "powerlaw", n: n, m: m} }

// Enterprise specifies an explicit backbone/edge/subnet hierarchy.
func Enterprise(cfg topology.HierarchicalConfig) TopologySpec {
	return TopologySpec{kind: "hier", hier: cfg}
}

// ASInternet specifies a BRITE-style two-level topology: a power-law
// AS core whose stub ASes each serve a host subnet.
func ASInternet(cfg topology.TwoLevelConfig) TopologySpec {
	return TopologySpec{kind: "twolevel", twolevel: cfg}
}

// WormSpec describes the worm's contact rate and targeting.
type WormSpec struct {
	// Beta is the per-scan infection probability (the paper's β).
	Beta float64
	// ScansPerTick is the scan attempts per tick (default 1).
	ScansPerTick int
	// ProbeFirst makes the worm ping targets and await the reply before
	// exploiting (Welchia's behaviour).
	ProbeFirst bool
	// strategy builds the target picker.
	strategy worm.Factory
	// localPref is recorded for the analytic mapping.
	localPref float64
	err       error
}

// RandomWorm scans uniformly random targets (Code Red style).
func RandomWorm(beta float64) WormSpec {
	return WormSpec{Beta: beta, strategy: worm.NewRandomFactory()}
}

// LocalPreferentialWorm scans its own subnet with probability p
// (Blaster/Welchia style).
func LocalPreferentialWorm(beta, p float64) WormSpec {
	f, err := worm.NewLocalPreferentialFactory(p)
	return WormSpec{Beta: beta, strategy: f, localPref: p, err: err}
}

// SequentialWorm walks the address space in order.
func SequentialWorm(beta float64) WormSpec {
	return WormSpec{Beta: beta, strategy: worm.NewSequentialFactory()}
}

// DefenseSpec describes a rate-limiting deployment.
type DefenseSpec struct {
	kind      string
	fraction  float64         // host deployment fraction
	rate      float64         // link rate or filtered scan rate
	cap       int             // node cap for hub defenses
	weighted  bool            // backbone: routing-proportional link weights
	overrides map[int]float64 // explicit per-node scan-rate overrides
	limWS     int             // throttle: working-set size
	limPeriod int64           // throttle: refresh period in ticks
	limHosts  int             // throttle: number of hosts to protect
}

// NoDefense leaves the network open.
func NoDefense() DefenseSpec { return DefenseSpec{kind: "none"} }

// HostRateLimit installs Williamson-style throttles on a fraction of
// hosts, cutting their scan rate to beta2.
func HostRateLimit(fraction, beta2 float64) DefenseSpec {
	return DefenseSpec{kind: "host", fraction: fraction, rate: beta2}
}

// EdgeRateLimit limits every subnet uplink to rate packets/tick.
func EdgeRateLimit(rate float64) DefenseSpec {
	return DefenseSpec{kind: "edge", rate: rate}
}

// BackboneRateLimit limits every backbone-incident link to rate
// packets/tick.
func BackboneRateLimit(rate float64) DefenseSpec {
	return DefenseSpec{kind: "backbone", rate: rate}
}

// BackboneRateLimitWeighted is BackboneRateLimit with each link's
// budget scaled by its routing-table weight (routing.Table.LinkWeights)
// — the paper's deployment, where heavily routed backbone links get a
// proportionally larger packet budget.
func BackboneRateLimitWeighted(rate float64) DefenseSpec {
	return DefenseSpec{kind: "backbone", rate: rate, weighted: true}
}

// HubCap caps the star hub's forwarding at cap packets/tick.
func HubCap(cap int) DefenseSpec { return DefenseSpec{kind: "hub", cap: cap} }

// ScanRateOverrides pins specific nodes to explicit filtered scan
// rates — the hand-placed counterpart of HostRateLimit's random
// deployment. Keys are node IDs, values replace the worm's β for that
// node's outgoing scans.
func ScanRateOverrides(rates map[int]float64) DefenseSpec {
	return DefenseSpec{kind: "overrides", overrides: rates}
}

// HostContactThrottle installs a mechanism-level Williamson contact
// throttle (working set of workingSet destinations, refreshed every
// period ticks) on the first hosts host-role nodes. Unlike
// HostRateLimit, which rescales β, the throttle sees the actual
// per-tick contact stream. Requires a routed topology.
func HostContactThrottle(workingSet int, period int64, hosts int) DefenseSpec {
	return DefenseSpec{kind: "throttle", limWS: workingSet, limPeriod: period, limHosts: hosts}
}

// QuarantineSpec configures dynamic (detection-triggered) activation of
// the scenario's defense.
type QuarantineSpec struct {
	// TriggerScansPerTick fires the detector when one tick carries this
	// many worm packets.
	TriggerScansPerTick int
	// TriggerLevel fires the detector when the infected fraction
	// reaches this level — a perfect-knowledge trigger for comparing
	// against detector-driven activation. <= 0 disables it.
	TriggerLevel float64
	// Delay is the detection-to-deployment lag in ticks.
	Delay int
}

// ImmunizationSpec configures delayed patching.
type ImmunizationSpec struct {
	// StartLevel triggers patching when the infected fraction reaches
	// this level (used when StartTick is 0 or negative).
	StartLevel float64
	// StartTick triggers patching at a fixed tick when positive.
	StartTick int
	// Mu is the per-tick patch probability.
	Mu float64
}

// Scenario is a complete experiment description. Zero values get
// sensible defaults where noted.
type Scenario struct {
	Topology TopologySpec
	Worm     WormSpec
	// Defense is the primary rate-limiting deployment; it is also the
	// defense the analytic mapping (Model) describes.
	Defense DefenseSpec
	// Defenses stacks further deployments on top of Defense — e.g. a
	// backbone rate limit plus hand-placed host overrides. All stacked
	// defenses share the scenario's DynamicQuarantine trigger.
	Defenses []DefenseSpec
	// Immunize enables delayed patching when non-nil.
	Immunize *ImmunizationSpec
	// DynamicQuarantine, when non-nil, keeps the Defense inactive until
	// the worm is detected (the paper's title scenario): the defense
	// engages when any single tick carries at least TriggerScansPerTick
	// worm packets, after Delay further ticks.
	DynamicQuarantine *QuarantineSpec
	// Faults, when non-nil, injects domain faults into the defense
	// (imperfect detector, limiter outages, lost or delayed
	// immunization) — see fault.Profile. Replicas decorrelate their
	// fault streams exactly like their simulation streams.
	Faults *fault.Profile
	// Ticks is the horizon (default 150).
	Ticks int
	// Seed fixes the randomness (default 1).
	Seed int64
	// TopologySeed, when non-zero, seeds randomized topology generation
	// (powerlaw, twolevel) independently of Seed, so a sweep can vary
	// the simulation seed while holding the graph fixed — or vice
	// versa. Zero means the graph derives from Seed, as before.
	TopologySeed int64
	// InitialInfected seeds the epidemic (default 1).
	InitialInfected int
	// MaxQueue bounds link buffers (default 50; negative = unbounded).
	MaxQueue int
	// Drop discards packets beyond a limited link's per-tick capacity
	// instead of queueing them (the ablation alternative to the
	// paper's "queuing the remaining packets").
	Drop bool
	// HostsOnly restricts infection to host-role nodes (routers are
	// infrastructure).
	HostsOnly bool
	// RecordInfections keeps the per-infection genealogy log (tick,
	// victim, source) in the result.
	RecordInfections bool
	// TrackSubnets records the per-tick mean infected fraction within
	// infected subnets (Figures 3(b) and 5). Requires a routed
	// topology.
	TrackSubnets bool
	// TrackLatency records the per-tick mean end-to-end delivery
	// latency of worm packets.
	TrackLatency bool
}

// ErrUnsupported reports a scenario combination with no implementation.
var ErrUnsupported = errors.New("core: unsupported scenario combination")

// seed returns the scenario's effective random seed (default 1).
func (s *Scenario) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// topoSeed returns the seed for randomized topology generation:
// TopologySeed when set, otherwise the scenario seed.
func (s *Scenario) topoSeed() int64 {
	if s.TopologySeed != 0 {
		return s.TopologySeed
	}
	return s.seed()
}

// materialize builds the scenario's concrete topology with roles and
// subnet partition (nil roles/subnet for unrouted topologies). Both the
// simulation config and the analytical mapping derive from the same
// materialized graph, so they agree on every structural quantity.
func (s *Scenario) materialize() (*topology.Graph, []topology.Role, []int, error) {
	var (
		g      *topology.Graph
		roles  []topology.Role
		subnet []int
		err    error
	)
	switch s.Topology.kind {
	case "star":
		g, err = topology.Star(s.Topology.n)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: topology: %w", err)
		}
	case "powerlaw":
		g, err = topology.BarabasiAlbert(s.Topology.n, s.Topology.m, rand.New(rand.NewSource(s.topoSeed())))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: topology: %w", err)
		}
		roles, err = topology.AssignRoles(g, topology.PaperRoles)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: roles: %w", err)
		}
		subnet = topology.Subnets(g, roles)
	case "hier":
		g, roles, subnet, err = topology.Hierarchical(s.Topology.hier)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: topology: %w", err)
		}
	case "twolevel":
		g, roles, subnet, err = topology.TwoLevel(s.Topology.twolevel, rand.New(rand.NewSource(s.topoSeed())))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: topology: %w", err)
		}
	default:
		return nil, nil, nil, errors.New("core: scenario needs a topology (use Star, PowerLaw, Enterprise, ASInternet)")
	}
	return g, roles, subnet, nil
}

// NetKey identifies the immutable topology state (graph, roles, routing
// tables) a scenario materializes: two scenarios with equal keys build
// byte-identical nets, so a sweep can share one BuildNet result across
// every grid point whose key matches. The key covers the topology shape
// parameters and — for randomized generators only — the effective
// topology seed; worm, defense, and run parameters never enter it.
func (s *Scenario) NetKey() (string, error) {
	switch s.Topology.kind {
	case "star":
		return fmt.Sprintf("star/n=%d", s.Topology.n), nil
	case "powerlaw":
		return fmt.Sprintf("powerlaw/n=%d,m=%d,seed=%d", s.Topology.n, s.Topology.m, s.topoSeed()), nil
	case "hier":
		h := s.Topology.hier
		return fmt.Sprintf("hier/b=%d,e=%d,h=%d", h.Backbones, h.EdgesPer, h.HostsPerSubnet), nil
	case "twolevel":
		tl := s.Topology.twolevel
		return fmt.Sprintf("twolevel/ases=%d,m=%d,tf=%g,hps=%d,seed=%d",
			tl.ASes, tl.AttachM, tl.TransitFraction, tl.HostsPerStub, s.topoSeed()), nil
	default:
		return "", errors.New("core: scenario needs a topology")
	}
}

// Net is prebuilt topology state: the materialized graph with roles and
// subnet partition plus the shared routing tables every replica uses.
// Build one with Scenario.BuildNet and pass it to SimulateOptions via
// RunOptions.Net (or WithNet) to amortize graph generation and all-pairs
// routing across several batches over the same topology — the grid
// points of a parameter sweep. A Net is read-only after construction
// and safe for concurrent use.
type Net struct {
	key    string
	graph  *topology.Graph
	roles  []topology.Role
	subnet []int
	net    *sim.Net
}

// Key returns the NetKey of the scenario the Net was built from.
func (n *Net) Key() string { return n.key }

// BuildNet materializes the scenario's topology once — graph, roles,
// subnet partition, and routing state — for reuse across batches via
// RunOptions.Net. Any scenario whose NetKey equals this scenario's can
// run over the returned Net.
func (s *Scenario) BuildNet() (*Net, error) {
	key, err := s.NetKey()
	if err != nil {
		return nil, err
	}
	g, roles, subnet, err := s.materialize()
	if err != nil {
		return nil, err
	}
	return &Net{key: key, graph: g, roles: roles, subnet: subnet, net: sim.BuildNet(g)}, nil
}

// applyDefense translates one DefenseSpec onto the simulation config.
func (s *Scenario) applyDefense(cfg *sim.Config, d DefenseSpec, seed int64) error {
	g, roles, subnet := cfg.Graph, cfg.Roles, cfg.Subnet
	switch d.kind {
	case "", "none":
	case "host":
		hosts, err := sim.DeployHostFraction(g, roles, d.fraction, seed)
		if err != nil {
			return fmt.Errorf("core: defense: %w", err)
		}
		if cfg.ScanRateOverride == nil {
			cfg.ScanRateOverride = make(map[int]float64, len(hosts))
		}
		for _, h := range hosts {
			cfg.ScanRateOverride[h] = d.rate
		}
	case "overrides":
		if cfg.ScanRateOverride == nil {
			cfg.ScanRateOverride = make(map[int]float64, len(d.overrides))
		}
		for h, r := range d.overrides {
			cfg.ScanRateOverride[h] = r
		}
	case "edge":
		if roles == nil {
			return fmt.Errorf("%w: edge rate limiting needs a routed topology", ErrUnsupported)
		}
		cfg.LimitedLinks = append(cfg.LimitedLinks, sim.DeployEdgeUplinks(g, roles, subnet)...)
		cfg.BaseRate = d.rate
	case "backbone":
		if roles == nil {
			return fmt.Errorf("%w: backbone rate limiting needs a routed topology", ErrUnsupported)
		}
		cfg.LimitedNodes = append(cfg.LimitedNodes, sim.DeployBackbone(roles)...)
		cfg.BaseRate = d.rate
		if d.weighted {
			cfg.LinkWeights = routing.Build(g).LinkWeights(g)
		}
	case "hub":
		if s.Topology.kind != "star" {
			return fmt.Errorf("%w: hub caps apply to star topologies", ErrUnsupported)
		}
		if cfg.NodeCaps == nil {
			cfg.NodeCaps = make(map[int]int, 1)
		}
		cfg.NodeCaps[topology.Hub] = d.cap
	case "throttle":
		if roles == nil {
			return fmt.Errorf("%w: host contact throttles need a routed topology", ErrUnsupported)
		}
		hosts := topology.NodesWithRole(roles, topology.RoleHost)
		if d.limHosts < 0 || d.limHosts > len(hosts) {
			return fmt.Errorf("core: defense: throttle wants %d hosts, topology has %d", d.limHosts, len(hosts))
		}
		// Construct one throttle eagerly so bad parameters surface as a
		// config error, not a panic inside a worker goroutine.
		if _, err := ratelimit.NewWilliamsonThrottle(d.limWS, d.limPeriod); err != nil {
			return fmt.Errorf("core: defense: %w", err)
		}
		ws, period := d.limWS, d.limPeriod
		cfg.HostLimiterNodes = append(cfg.HostLimiterNodes, hosts[:d.limHosts]...)
		cfg.HostLimiterFactory = func() ratelimit.ContactLimiter {
			l, err := ratelimit.NewWilliamsonThrottle(ws, period)
			if err != nil {
				panic(err) // unreachable: parameters validated above
			}
			return l
		}
	default:
		return fmt.Errorf("%w: defense %q", ErrUnsupported, d.kind)
	}
	return nil
}

// build materializes the simulation config. A non-nil net supplies the
// prebuilt topology (its key must match the scenario's); nil builds
// from scratch.
func (s *Scenario) build(net *Net) (sim.Config, error) {
	var cfg sim.Config
	if s.Worm.err != nil {
		return cfg, fmt.Errorf("core: worm: %w", s.Worm.err)
	}
	if s.Worm.strategy == nil {
		return cfg, errors.New("core: scenario needs a worm (use RandomWorm et al.)")
	}

	var (
		g      *topology.Graph
		roles  []topology.Role
		subnet []int
		err    error
	)
	if net != nil {
		key, kerr := s.NetKey()
		if kerr != nil {
			return cfg, kerr
		}
		if key != net.key {
			return cfg, fmt.Errorf("core: prebuilt net %q does not match scenario topology %q", net.key, key)
		}
		g, roles, subnet = net.graph, net.roles, net.subnet
	} else {
		g, roles, subnet, err = s.materialize()
		if err != nil {
			return cfg, err
		}
	}
	seed := s.seed()

	ticks := s.Ticks
	if ticks == 0 {
		ticks = 150
	}
	initial := s.InitialInfected
	if initial == 0 {
		initial = 1
	}
	maxQ := s.MaxQueue
	switch {
	case maxQ == 0:
		maxQ = 50
	case maxQ < 0:
		maxQ = 0 // sim-level 0 = unbounded
	}
	cfg = sim.Config{
		Graph:            g,
		Roles:            roles,
		Subnet:           subnet,
		Beta:             s.Worm.Beta,
		ScansPerTick:     s.Worm.ScansPerTick,
		ProbeFirst:       s.Worm.ProbeFirst,
		Strategy:         s.Worm.strategy,
		InitialInfected:  initial,
		Ticks:            ticks,
		Seed:             seed,
		MaxQueue:         maxQ,
		HostsOnly:        s.HostsOnly,
		RecordInfections: s.RecordInfections,
		TrackSubnets:     s.TrackSubnets,
		TrackLatency:     s.TrackLatency,
		Faults:           s.Faults,
	}
	if net != nil {
		cfg.Net = net.net
	}
	if s.Drop {
		cfg.Policy = sim.PolicyDrop
	}

	if err := s.applyDefense(&cfg, s.Defense, seed); err != nil {
		return cfg, err
	}
	for _, d := range s.Defenses {
		if err := s.applyDefense(&cfg, d, seed); err != nil {
			return cfg, err
		}
	}

	if s.Immunize != nil {
		im := &sim.Immunization{Mu: s.Immunize.Mu, StartTick: -1, StartLevel: s.Immunize.StartLevel}
		if s.Immunize.StartTick > 0 {
			im.StartTick = s.Immunize.StartTick
		}
		cfg.Immunize = im
	}
	if s.DynamicQuarantine != nil {
		cfg.Quarantine = &sim.Quarantine{
			TriggerScansPerTick: s.DynamicQuarantine.TriggerScansPerTick,
			TriggerLevel:        s.DynamicQuarantine.TriggerLevel,
			Delay:               s.DynamicQuarantine.Delay,
		}
	}
	return cfg, nil
}

// Simulate runs the scenario `runs` times (averaging the series) and
// returns the per-tick result. It is SimulateContext with a background
// context and default options.
func (s *Scenario) Simulate(runs int) (*sim.Result, error) {
	return s.SimulateContext(context.Background(), runs)
}

// SimulateContext runs the scenario `runs` times on a bounded worker
// pool (averaging the series) and returns the per-tick result. Each
// replica seeds its RNG from the scenario seed plus its index, so the
// result is deterministic and independent of the job count. Cancelling
// ctx (or exceeding WithTimeout) aborts the batch between simulation
// ticks and returns the context's error.
func (s *Scenario) SimulateContext(ctx context.Context, runs int, opts ...RunOption) (*sim.Result, error) {
	res, _, err := s.SimulateStats(ctx, runs, opts...)
	return res, err
}

// SimulateStats is SimulateContext returning the batch's final
// runner.Stats (replicas completed/failed/retried, ticks simulated,
// failure details) alongside the averaged result, for callers that
// report batch health. It folds the functional options into a
// RunOptions and delegates to SimulateOptions.
func (s *Scenario) SimulateStats(ctx context.Context, runs int, opts ...RunOption) (*sim.Result, runner.Stats, error) {
	var o RunOptions
	for _, opt := range opts {
		opt(&o)
	}
	return s.SimulateOptions(ctx, runs, o)
}

// SimulateOptions runs the scenario `runs` times under a declarative
// RunOptions — the entry point the CLIs, the spec compiler, and the
// sweep engine share. It validates the options, applies the batch
// timeout, wires checkpoint/resume sinks, lowers the remaining knobs
// through RunOptions.RunnerOptions, and executes on sim.MultiRunStats.
func (s *Scenario) SimulateOptions(ctx context.Context, runs int, o RunOptions) (*sim.Result, runner.Stats, error) {
	if err := o.Validate(); err != nil {
		return nil, runner.Stats{}, err
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	cfg, err := s.build(o.Net)
	if err != nil {
		return nil, runner.Stats{}, err
	}
	cfg.CollectorFactory = o.Collectors
	cfg.Check = o.Check
	if o.Workload != nil {
		if err := applyWorkload(&cfg, o.Workload); err != nil {
			return nil, runner.Stats{}, err
		}
	}
	if o.Checkpoint != "" {
		if err := os.MkdirAll(o.Checkpoint, 0o755); err != nil {
			return nil, runner.Stats{}, fmt.Errorf("core: checkpoint dir: %w", err)
		}
		cfg.CheckpointEvery = o.CheckpointEvery
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = 10
		}
		dir := o.Checkpoint
		onErr := o.OnCheckpointError
		cfg.CheckpointFactory = func(run int) func(*sim.Snapshot) error {
			path := ReplicaCheckpoint(dir, run)
			return func(snap *sim.Snapshot) error {
				err := sim.WriteSnapshot(path, snap)
				if err != nil && onErr != nil {
					// The caller decides whether losing this checkpoint
					// is survivable (e.g. skip-under-ENOSPC) or fatal.
					err = onErr(run, err)
				}
				return err
			}
		}
	}
	if o.Resume != "" {
		resume := o.Resume
		info, statErr := os.Stat(resume)
		fromFile := statErr == nil && !info.IsDir()
		if fromFile && runs != 1 {
			return nil, runner.Stats{}, fmt.Errorf("core: -resume with a single checkpoint file needs runs=1, got %d (pass the checkpoint directory instead)", runs)
		}
		cfg.ResumeFactory = func(run int) (*sim.Snapshot, error) {
			path := ReplicaCheckpoint(resume, run)
			if fromFile {
				path = resume
			}
			snap, err := sim.ReadSnapshot(path)
			if errors.Is(err, fs.ErrNotExist) {
				return nil, nil // no checkpoint for this replica: start fresh
			}
			return snap, err
		}
	}
	return sim.MultiRunStats(ctx, cfg, runs, o.RunnerOptions()...)
}

// Validate checks the scenario spec without running anything: topology
// construction, worm and defense compatibility, and every simulation
// parameter are verified, so spec errors surface before a batch is
// scheduled. A nil error means Simulate will not fail on the spec.
func (s *Scenario) Validate() error {
	cfg, err := s.build(nil)
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// specNodes computes the scenario topology's node count from the spec
// alone, without materializing the graph.
func (s *Scenario) specNodes() (int, error) {
	switch s.Topology.kind {
	case "star", "powerlaw":
		return s.Topology.n, nil
	case "hier":
		h := s.Topology.hier
		return h.Backbones + h.Backbones*h.EdgesPer*(1+h.HostsPerSubnet), nil
	case "twolevel":
		tl := s.Topology.twolevel
		nTransit := int(tl.TransitFraction * float64(tl.ASes))
		if tl.TransitFraction > 0 && nTransit == 0 {
			nTransit = 1
		}
		return tl.ASes + (tl.ASes-nTransit)*tl.HostsPerStub, nil
	default:
		return 0, errors.New("core: scenario needs a topology")
	}
}

// Warnings reports advisory (non-fatal) issues with the scenario:
// configurations that will run correctly but probably not the way the
// user hoped. Currently it flags tracking options that need structure
// the topology does not have.
func (s *Scenario) Warnings() []string {
	var warns []string
	if s.TrackSubnets && s.Topology.kind == "star" {
		warns = append(warns, "core: track-subnets on a star topology: stars have no subnet partition; the within-subnet series will be empty")
	}
	return warns
}

// Model returns the paper's analytical model matching the scenario
// (topology size N, worm β, defense), where one exists. Scenarios with
// no closed-form counterpart return ErrUnsupported. Only the primary
// Defense maps; stacked Defenses have no closed form.
func (s *Scenario) Model() (model.Curve, error) {
	if s.Worm.strategy == nil {
		return nil, errors.New("core: scenario needs a worm")
	}
	if len(s.Defenses) > 0 {
		return nil, fmt.Errorf("%w: no analytical model for stacked defenses", ErrUnsupported)
	}
	nodes, err := s.specNodes()
	if err != nil {
		return nil, err
	}
	n := float64(nodes)
	i0 := float64(s.InitialInfected)
	if i0 == 0 {
		i0 = 1
	}
	switch s.Defense.kind {
	case "", "none":
		m := model.Homogeneous{Beta: s.Worm.Beta, N: n, I0: i0}
		return m, m.Validate()
	case "host":
		m := model.HostRL{
			Q: s.Defense.fraction, Beta1: s.Worm.Beta, Beta2: s.Defense.rate, N: n, I0: i0,
		}
		return m, m.Validate()
	case "hub":
		m := model.HubRL{Beta: float64(s.Defense.cap), Gamma: s.Worm.Beta, N: n, I0: i0}
		return m, m.Validate()
	case "backbone":
		// Measure the coverage α of Equation 6 on the scenario's actual
		// topology: the fraction of source–destination paths that
		// transit a backbone router, computed from the same routing
		// tables the simulation forwards packets over. The analytic
		// counterpart then matches the simulated deployment with no
		// free parameter.
		g, roles, _, err := s.materialize()
		if err != nil {
			return nil, err
		}
		if roles == nil {
			return nil, fmt.Errorf("%w: backbone rate limiting needs a routed topology", ErrUnsupported)
		}
		alpha, err := routing.Build(g).PathCoverage(sim.DeployBackbone(roles))
		if err != nil {
			return nil, fmt.Errorf("core: coverage: %w", err)
		}
		m := model.BackboneRL{Beta: s.Worm.Beta, Alpha: alpha, R: s.Defense.rate, N: n, I0: i0}
		return m, m.Validate()
	default:
		return nil, fmt.Errorf("%w: no analytical model for defense %q", ErrUnsupported, s.Defense.kind)
	}
}
