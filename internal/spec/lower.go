package spec

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/ratelimit"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/worm"
)

// ErrUnsupported reports a scenario combination with no implementation.
var ErrUnsupported = errors.New("spec: unsupported scenario combination")

// seed returns the spec's effective random seed (default 1).
func (s *Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// topoSeed returns the seed for randomized topology generation:
// TopologySeed when set, otherwise the simulation seed.
func (s *Spec) topoSeed() int64 {
	if s.TopologySeed != 0 {
		return s.TopologySeed
	}
	return s.seed()
}

// edges returns the powerlaw attachment parameter m (default 1).
func (t *Topology) edges() int {
	if t.Edges == 0 {
		return 1
	}
	return t.Edges
}

// errKind rejects a topology kind no generator implements.
func (t *Topology) errKind() error {
	return fmt.Errorf("spec: unknown topology kind %q (want star, powerlaw, enterprise, twolevel)", t.Kind)
}

// materialize builds the spec's concrete topology with roles and subnet
// partition (nil roles/subnet for unrouted topologies). Both the
// simulation config and the analytical mapping derive from the same
// materialized graph, so they agree on every structural quantity.
func (s *Spec) materialize() (*topology.Graph, []topology.Role, []int, error) {
	var (
		g      *topology.Graph
		roles  []topology.Role
		subnet []int
		err    error
	)
	t := &s.Topology
	switch t.Kind {
	case "star":
		g, err = topology.Star(t.Nodes)
	case "powerlaw":
		g, err = topology.BarabasiAlbert(t.Nodes, t.edges(), rand.New(rand.NewSource(s.topoSeed())))
		if err == nil {
			if roles, err = topology.AssignRoles(g, topology.PaperRoles); err != nil {
				return nil, nil, nil, fmt.Errorf("spec: roles: %w", err)
			}
			subnet = topology.Subnets(g, roles)
		}
	case "enterprise":
		g, roles, subnet, err = topology.Hierarchical(topology.HierarchicalConfig{
			Backbones: t.Backbones, EdgesPer: t.EdgesPerBackbone, HostsPerSubnet: t.HostsPerSubnet,
		})
	case "twolevel":
		g, roles, subnet, err = topology.TwoLevel(topology.TwoLevelConfig{
			ASes: t.ASes, AttachM: t.AttachM, TransitFraction: t.TransitFraction, HostsPerStub: t.HostsPerStub,
		}, rand.New(rand.NewSource(s.topoSeed())))
	default:
		return nil, nil, nil, t.errKind()
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spec: topology: %w", err)
	}
	return g, roles, subnet, nil
}

// NetKey identifies the immutable topology state (graph, roles, routing
// tables) the spec materializes: two specs with equal keys build
// byte-identical nets, so a sweep can share one BuildNet result across
// every grid point whose key matches. The key covers the topology shape
// parameters and — for randomized generators only — the effective
// topology seed; worm, defense, and run parameters never enter it.
func (s *Spec) NetKey() (string, error) {
	t := &s.Topology
	switch t.Kind {
	case "star":
		return fmt.Sprintf("star/n=%d", t.Nodes), nil
	case "powerlaw":
		return fmt.Sprintf("powerlaw/n=%d,m=%d,seed=%d", t.Nodes, t.edges(), s.topoSeed()), nil
	case "enterprise":
		return fmt.Sprintf("hier/b=%d,e=%d,h=%d", t.Backbones, t.EdgesPerBackbone, t.HostsPerSubnet), nil
	case "twolevel":
		return fmt.Sprintf("twolevel/ases=%d,m=%d,tf=%g,hps=%d,seed=%d",
			t.ASes, t.AttachM, t.TransitFraction, t.HostsPerStub, s.topoSeed()), nil
	default:
		return "", t.errKind()
	}
}

// Net is prebuilt topology state: the materialized graph with roles and
// subnet partition plus the shared routing state every replica uses.
// Build one with Spec.BuildNet and pass it to Compiled.Run to amortize
// graph generation and routing construction across several batches
// over the same topology — the grid points of a parameter sweep. A Net
// is read-only after construction and safe for concurrent use.
type Net struct {
	key    string
	graph  *topology.Graph
	roles  []topology.Role
	subnet []int
	net    *sim.Net
}

// BuildNet materializes the spec's topology once — graph, roles, subnet
// partition, and routing state — for reuse across batches via
// Compiled.Run. Any spec whose NetKey equals this spec's can run over
// the returned Net.
func (s *Spec) BuildNet() (*Net, error) {
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

// strategy builds the worm's target picker.
func (w *Worm) strategy() (worm.Factory, error) {
	switch w.Kind {
	case "random":
		return worm.NewRandomFactory(), nil
	case "local":
		f, err := worm.NewLocalPreferentialFactory(w.LocalPref)
		if err != nil {
			return nil, fmt.Errorf("spec: worm: %w", err)
		}
		return f, nil
	case "sequential":
		return worm.NewSequentialFactory(), nil
	default:
		return nil, fmt.Errorf("spec: unknown worm kind %q (want random, local, sequential)", w.Kind)
	}
}

// Config lowers the spec onto a simulation config — the module's one
// scenario lowering, shared by Compiled.Run, the sweep engine, and the
// figure harness. A non-nil net supplies the prebuilt topology (its key
// must match the spec's); nil builds from scratch. The config is not
// validated here; sim.New and sim.MultiRun validate it.
func (s *Spec) Config(net *Net) (sim.Config, error) {
	strategy, err := s.Worm.strategy()
	if err != nil {
		return sim.Config{}, err
	}
	var (
		g      *topology.Graph
		roles  []topology.Role
		subnet []int
	)
	if net != nil {
		key, err := s.NetKey()
		if err != nil {
			return sim.Config{}, err
		}
		if key != net.key {
			return sim.Config{}, fmt.Errorf("spec: prebuilt net %q does not match topology %q", net.key, key)
		}
		g, roles, subnet = net.graph, net.roles, net.subnet
	} else if g, roles, subnet, err = s.materialize(); err != nil {
		return sim.Config{}, err
	}

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
	cfg := sim.Config{
		Graph:           g,
		Roles:           roles,
		Subnet:          subnet,
		Beta:            s.Worm.Beta,
		ScansPerTick:    s.Worm.ScansPerTick,
		ProbeFirst:      s.Worm.ProbeFirst,
		Strategy:        strategy,
		InitialInfected: initial,
		Ticks:           ticks,
		Seed:            s.seed(),
		MaxQueue:        maxQ,
		HostsOnly:       s.HostsOnly,
	}
	if net != nil {
		cfg.Net = net.net
	}
	if s.Drop {
		cfg.Policy = sim.PolicyDrop
	}
	if err := s.checkStack(); err != nil {
		return sim.Config{}, err
	}
	for i, d := range s.Defenses {
		if err := s.applyDefense(&cfg, i, d); err != nil {
			return sim.Config{}, err
		}
	}
	if im := s.Immunize; im != nil {
		cfg.Immunize = &sim.Immunization{Mu: im.Mu, StartTick: -1, StartLevel: im.StartLevel}
		if im.StartTick > 0 {
			cfg.Immunize.StartTick = im.StartTick
		}
	}
	if q := s.Quarantine; q != nil {
		cfg.Quarantine = &sim.Quarantine{
			TriggerScansPerTick: q.TriggerScansPerTick,
			TriggerLevel:        q.TriggerLevel,
			Delay:               q.Delay,
		}
	}
	if f := s.Faults; f != nil {
		cfg.Faults = &fault.Profile{
			Seed:                 f.Seed,
			FalseAlarmPerTick:    f.FalseAlarmPerTick,
			MissRate:             f.MissRate,
			ImmunizationLossRate: f.ImmunizationLossRate,
			ImmunizationDelay:    f.ImmunizationDelay,
		}
		for _, w := range f.LimiterOutages {
			cfg.Faults.LimiterOutages = append(cfg.Faults.LimiterOutages, fault.Window{Start: w.Start, End: w.End})
		}
	}
	if o := s.Observe; o != nil {
		cfg.RecordInfections = o.Infections
		cfg.TrackSubnets = o.Subnets
		cfg.TrackLatency = o.Latency
	}
	return cfg, nil
}

// checkStack rejects a defense stack whose entries would overwrite one
// another's engine-wide settings: every link-limiting entry ("edge",
// "edge_router", "backbone") sets the one sim.Config.BaseRate, and
// every "throttle" the one HostLimiterFactory.
func (s *Spec) checkStack() error {
	link, throttle := -1, -1
	for i, d := range s.Defenses {
		switch d.Kind {
		case "edge", "edge_router", "backbone":
			if link < 0 {
				link = i
			} else if r := s.Defenses[link].Rate; r != d.Rate {
				return fmt.Errorf("spec: defenses[%d] and defenses[%d] limit links at different rates (%g, %g); stacked link limits share one rate",
					link, i, r, d.Rate)
			}
		case "throttle":
			if throttle >= 0 {
				return fmt.Errorf("spec: defenses[%d] and defenses[%d] are both throttles; a stack takes at most one", throttle, i)
			}
			throttle = i
		}
	}
	return nil
}

// applyDefense lowers defenses[i] onto the simulation config; stacked
// defenses accumulate.
func (s *Spec) applyDefense(cfg *sim.Config, i int, d Defense) error {
	g, roles, subnet := cfg.Graph, cfg.Roles, cfg.Subnet
	switch d.Kind {
	case "edge", "edge_router", "backbone", "backbone_cap", "throttle":
		if roles == nil {
			return fmt.Errorf("%w: defense %q needs a routed topology", ErrUnsupported, d.Kind)
		}
	}
	switch d.Kind {
	case "none":
	case "host":
		hosts, err := sim.DeployHostFraction(g, roles, d.Fraction, s.seed())
		if err != nil {
			return fmt.Errorf("spec: defense: %w", err)
		}
		if cfg.ScanRateOverride == nil {
			cfg.ScanRateOverride = make(map[int]float64, len(hosts))
		}
		for _, h := range hosts {
			if s.Topology.Kind == "star" && h == topology.Hub {
				continue // the hub is the star's router, not a leaf host
			}
			cfg.ScanRateOverride[h] = d.Rate
		}
	case "overrides":
		if cfg.ScanRateOverride == nil {
			cfg.ScanRateOverride = make(map[int]float64, len(d.Overrides))
		}
		for k, r := range d.Overrides {
			node, err := strconv.Atoi(k)
			if err != nil {
				return fmt.Errorf("spec: defenses[%d]: override key %q is not a node id", i, k)
			}
			cfg.ScanRateOverride[node] = r
		}
	case "edge":
		cfg.LimitedLinks = append(cfg.LimitedLinks, sim.DeployEdgeUplinks(g, roles, subnet)...)
		cfg.BaseRate = d.Rate
	case "edge_router":
		cfg.LimitedNodes = append(cfg.LimitedNodes, sim.DeployEdgeRouters(roles)...)
		cfg.BaseRate = d.Rate
	case "backbone":
		cfg.LimitedNodes = append(cfg.LimitedNodes, sim.DeployBackbone(roles)...)
		cfg.BaseRate = d.Rate
		if d.Weighted {
			w, err := routing.NewStructural(g, routing.EnumerateLinks(g)).LinkWeights(g)
			if err != nil {
				return fmt.Errorf("spec: defenses[%d]: %w", i, err)
			}
			cfg.LinkWeights = w
		}
	case "hub", "backbone_cap":
		capped := []int{topology.Hub}
		if d.Kind == "backbone_cap" {
			capped = sim.DeployBackbone(roles)
		} else if s.Topology.Kind != "star" {
			return fmt.Errorf("%w: hub caps apply to star topologies", ErrUnsupported)
		}
		if cfg.NodeCaps == nil {
			cfg.NodeCaps = make(map[int]int, len(capped))
		}
		for _, n := range capped {
			cfg.NodeCaps[n] = d.HubCap
		}
	case "throttle":
		hosts := topology.NodesWithRole(roles, topology.RoleHost)
		if d.Hosts < 0 || d.Hosts > len(hosts) {
			return fmt.Errorf("spec: defense: throttle wants %d hosts, topology has %d", d.Hosts, len(hosts))
		}
		// Construct one throttle eagerly so bad parameters surface as a
		// config error, not a panic inside a worker goroutine.
		if _, err := ratelimit.NewWilliamsonThrottle(d.WorkingSet, d.Period); err != nil {
			return fmt.Errorf("spec: defense: %w", err)
		}
		ws, period := d.WorkingSet, d.Period
		cfg.HostLimiterNodes = append(cfg.HostLimiterNodes, hosts[:d.Hosts]...)
		cfg.HostLimiterFactory = func() ratelimit.ContactLimiter {
			l, err := ratelimit.NewWilliamsonThrottle(ws, period)
			if err != nil {
				panic(err) // unreachable: parameters validated above
			}
			return l
		}
	default:
		return fmt.Errorf("spec: defenses[%d]: unknown kind %q", i, d.Kind)
	}
	return nil
}

// nodes computes the topology's node count from the spec alone,
// without materializing the graph.
func (t *Topology) nodes() (int, error) {
	switch t.Kind {
	case "star", "powerlaw":
		return t.Nodes, nil
	case "enterprise":
		return t.Backbones + t.Backbones*t.EdgesPerBackbone*(1+t.HostsPerSubnet), nil
	case "twolevel":
		nTransit := int(t.TransitFraction * float64(t.ASes))
		if t.TransitFraction > 0 && nTransit == 0 {
			nTransit = 1
		}
		return t.ASes + (t.ASes-nTransit)*t.HostsPerStub, nil
	default:
		return 0, t.errKind()
	}
}

// Warnings reports advisory (non-fatal) issues with the spec:
// configurations that will run correctly but probably not the way the
// user hoped. Currently it flags tracking options that need structure
// the topology does not have.
func (s *Spec) Warnings() []string {
	if s.Observe != nil && s.Observe.Subnets && s.Topology.Kind == "star" {
		return []string{"spec: track-subnets on a star topology: stars have no subnet partition; the within-subnet series will be empty"}
	}
	return nil
}

// Model returns the paper's analytical model matching the spec
// (topology size N, worm β, primary defense), where one exists. Specs
// with no closed-form counterpart — including any stack of more than
// one defense — return ErrUnsupported.
func (s *Spec) Model() (model.Curve, error) {
	if _, err := s.Worm.strategy(); err != nil {
		return nil, err
	}
	if len(s.Defenses) > 1 {
		return nil, fmt.Errorf("%w: no analytical model for stacked defenses", ErrUnsupported)
	}
	nodes, err := s.Topology.nodes()
	if err != nil {
		return nil, err
	}
	n := float64(nodes)
	i0 := float64(s.InitialInfected)
	if i0 == 0 {
		i0 = 1
	}
	d := Defense{Kind: "none"}
	if len(s.Defenses) == 1 {
		d = s.Defenses[0]
	}
	switch d.Kind {
	case "none":
		m := model.Homogeneous{Beta: s.Worm.Beta, N: n, I0: i0}
		return m, m.Validate()
	case "host":
		m := model.HostRL{Q: d.Fraction, Beta1: s.Worm.Beta, Beta2: d.Rate, N: n, I0: i0}
		return m, m.Validate()
	case "hub":
		m := model.HubRL{Beta: float64(d.HubCap), Gamma: s.Worm.Beta, N: n, I0: i0}
		return m, m.Validate()
	case "backbone":
		// Measure the coverage α of Equation 6 on the spec's actual
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
			return nil, fmt.Errorf("spec: coverage: %w", err)
		}
		m := model.BackboneRL{Beta: s.Worm.Beta, Alpha: alpha, R: d.Rate, N: n, I0: i0}
		return m, m.Validate()
	default:
		return nil, fmt.Errorf("%w: no analytical model for defense %q", ErrUnsupported, d.Kind)
	}
}
