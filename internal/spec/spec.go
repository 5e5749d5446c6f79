// Package spec is the declarative scenario layer: a versioned JSON/YAML
// file format describing a complete experiment — topology, worm,
// defense stack, quarantine, immunization, fault profile, observability
// switches, run options, and an optional parameter grid — plus the
// compiler lowering a parsed Spec onto the core facade
// (core.Scenario + core.RunOptions) and the sweep engine executing grid
// expansions as replica batches that share immutable topology state.
//
// Like the engine's snapshot files (sim.Snapshot), every spec carries a
// format/version envelope and is rejected loudly on skew: a spec
// written for a future format version never silently half-parses.
// Parsing is strict — unknown fields are errors, catching typos like
// "betas:" before a batch burns CPU. The canonical encoding is
// two-space-indented JSON; Canonical re-marshals any parsed spec into
// exactly that form, so checked-in specs round-trip byte-identically.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
)

// Format is the envelope identifier every scenario spec must carry.
const Format = "wormsim-scenario"

// Version is the spec schema version this build reads and writes.
const Version = 1

// Spec is the on-disk scenario description. Field names (via their
// JSON tags) are the stable file-format vocabulary; the YAML form uses
// the same names. Zero values inherit the same defaults as the
// core.Scenario they compile to.
type Spec struct {
	// Format must be "wormsim-scenario".
	Format string `json:"format"`
	// Version must match Version; skew is an explicit parse error.
	Version int `json:"version"`
	// Name labels the scenario in sweep output and figure files.
	Name string `json:"name,omitempty"`

	Topology Topology `json:"topology"`
	Worm     Worm     `json:"worm"`
	// Defenses is the rate-limiting deployment stack; the first entry
	// is the primary defense (the one Scenario.Model describes).
	Defenses   []Defense   `json:"defenses,omitempty"`
	Quarantine *Quarantine `json:"quarantine,omitempty"`
	Immunize   *Immunize   `json:"immunize,omitempty"`
	Faults     *Faults     `json:"faults,omitempty"`

	// Ticks is the horizon (0 = default 150).
	Ticks int `json:"ticks,omitempty"`
	// Seed fixes the simulation randomness (0 = default 1).
	Seed int64 `json:"seed,omitempty"`
	// TopologySeed seeds randomized topology generation independently
	// of Seed (0 = derive from Seed).
	TopologySeed int64 `json:"topology_seed,omitempty"`
	// InitialInfected seeds the epidemic (0 = default 1).
	InitialInfected int `json:"initial_infected,omitempty"`
	// MaxQueue bounds link buffers (0 = default 50; -1 = unbounded).
	MaxQueue int `json:"max_queue,omitempty"`
	// Drop discards packets beyond link capacity instead of queueing.
	Drop bool `json:"drop,omitempty"`
	// HostsOnly restricts infection to host-role nodes.
	HostsOnly bool `json:"hosts_only,omitempty"`

	// Workload replaces the worm's β-draw scan source with a
	// trace-replay workload (synthetic traffic profile or trace file);
	// see core.WorkloadSpec. The worm section is still required — it
	// names the target strategy checkpoint restore rebuilds — but its
	// scan parameters are not consulted during replay.
	Workload *Workload `json:"workload,omitempty"`

	Observe *Observe `json:"observe,omitempty"`
	Run     *Run     `json:"run,omitempty"`

	// Grid declares a parameter sweep: the cartesian product of the
	// axes, each axis a dot-path into this spec plus the values it
	// takes. Expand compiles one scenario per grid point.
	Grid []Axis `json:"grid,omitempty"`
}

// Topology selects and parameterizes the network generator.
type Topology struct {
	// Kind is one of "star", "powerlaw", "enterprise", "twolevel".
	Kind string `json:"kind"`
	// Nodes sizes star and powerlaw topologies.
	Nodes int `json:"nodes,omitempty"`
	// Edges is the powerlaw attachment parameter m (0 = 1).
	Edges int `json:"edges,omitempty"`
	// Backbones/EdgesPerBackbone/HostsPerSubnet shape "enterprise".
	Backbones        int `json:"backbones,omitempty"`
	EdgesPerBackbone int `json:"edges_per_backbone,omitempty"`
	HostsPerSubnet   int `json:"hosts_per_subnet,omitempty"`
	// ASes/AttachM/TransitFraction/HostsPerStub shape "twolevel".
	ASes            int     `json:"ases,omitempty"`
	AttachM         int     `json:"attach_m,omitempty"`
	TransitFraction float64 `json:"transit_fraction,omitempty"`
	HostsPerStub    int     `json:"hosts_per_stub,omitempty"`
}

// Worm selects and parameterizes the scanning strategy.
type Worm struct {
	// Kind is one of "random", "local", "sequential".
	Kind string `json:"kind"`
	// Beta is the per-scan infection probability.
	Beta float64 `json:"beta"`
	// ScansPerTick is the scan attempts per tick (0 = 1).
	ScansPerTick int `json:"scans_per_tick,omitempty"`
	// ProbeFirst makes the worm probe-then-exploit (Welchia).
	ProbeFirst bool `json:"probe_first,omitempty"`
	// LocalPref is the own-subnet scan probability for kind "local".
	LocalPref float64 `json:"local_pref,omitempty"`
}

// Defense is one entry of the deployment stack.
type Defense struct {
	// Kind is one of "none", "host", "edge", "backbone", "hub",
	// "overrides", "throttle".
	Kind string `json:"kind"`
	// Fraction is the host deployment fraction for "host".
	Fraction float64 `json:"fraction,omitempty"`
	// Rate is the link rate ("edge"/"backbone") or filtered scan rate
	// ("host").
	Rate float64 `json:"rate,omitempty"`
	// HubCap caps the star hub's forwarding for "hub".
	HubCap int `json:"hub_cap,omitempty"`
	// Weighted scales "backbone" link budgets by routing-table weight.
	Weighted bool `json:"weighted,omitempty"`
	// Overrides pins per-node filtered scan rates for "overrides"
	// (keys are decimal node IDs — JSON objects key on strings).
	Overrides map[string]float64 `json:"overrides,omitempty"`
	// WorkingSet/Period/Hosts parameterize "throttle" (Williamson).
	WorkingSet int   `json:"working_set,omitempty"`
	Period     int64 `json:"period,omitempty"`
	Hosts      int   `json:"hosts,omitempty"`
}

// Workload mirrors core.WorkloadSpec: a trace-replay scan source.
type Workload struct {
	// Kind is "synthetic" (the generator's traffic profile) or "trace"
	// (replay a serialized trace file).
	Kind string `json:"kind"`
	// Path is the trace file for kind "trace".
	Path string `json:"path,omitempty"`
	// TickMS is the trace milliseconds one engine tick spans (0 = 1000).
	TickMS int64 `json:"tick_ms,omitempty"`
	// DurationMS bounds the synthetic stream (0 = the scenario horizon).
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Seed drives the synthetic generator (0 = the scenario seed).
	Seed int64 `json:"seed,omitempty"`
	// Normal/Servers/P2P/Infected are the synthetic class populations
	// (all zero = the paper's mix scaled to the topology's host count).
	Normal   int `json:"normal,omitempty"`
	Servers  int `json:"servers,omitempty"`
	P2P      int `json:"p2p,omitempty"`
	Infected int `json:"infected,omitempty"`
	// BlasterFraction of synthetic infected hosts run Blaster; the rest
	// run Welchia.
	BlasterFraction float64 `json:"blaster_fraction,omitempty"`
	// WormOnsetMS is when synthetic infected hosts begin scanning.
	WormOnsetMS int64 `json:"worm_onset_ms,omitempty"`
}

// Quarantine mirrors core.QuarantineSpec.
type Quarantine struct {
	TriggerScansPerTick int     `json:"trigger_scans_per_tick,omitempty"`
	TriggerLevel        float64 `json:"trigger_level,omitempty"`
	Delay               int     `json:"delay,omitempty"`
}

// Immunize mirrors core.ImmunizationSpec.
type Immunize struct {
	StartLevel float64 `json:"start_level,omitempty"`
	StartTick  int     `json:"start_tick,omitempty"`
	Mu         float64 `json:"mu"`
}

// Faults mirrors fault.Profile.
type Faults struct {
	Seed                 int64    `json:"seed,omitempty"`
	FalseAlarmPerTick    float64  `json:"false_alarm_per_tick,omitempty"`
	MissRate             float64  `json:"miss_rate,omitempty"`
	LimiterOutages       []Window `json:"limiter_outages,omitempty"`
	ImmunizationLossRate float64  `json:"immunization_loss_rate,omitempty"`
	ImmunizationDelay    int      `json:"immunization_delay,omitempty"`
}

// Window is one limiter outage window, [Start, End) in ticks.
type Window struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Observe selects the optional result series.
type Observe struct {
	// Infections keeps the per-infection genealogy log.
	Infections bool `json:"infections,omitempty"`
	// Subnets tracks the within-subnet infected fraction.
	Subnets bool `json:"subnets,omitempty"`
	// Latency tracks mean worm-packet delivery latency.
	Latency bool `json:"latency,omitempty"`
}

// Run is the serializable subset of core.RunOptions plus the replica
// count. Durations are strings ("30s", "1m") so specs re-marshal
// byte-identically.
type Run struct {
	// Runs is the number of replicas to average (0 = 1).
	Runs            int    `json:"runs,omitempty"`
	Jobs            int    `json:"jobs,omitempty"`
	Timeout         string `json:"timeout,omitempty"`
	Check           bool   `json:"check,omitempty"`
	KeepGoing       bool   `json:"keep_going,omitempty"`
	Retries         int    `json:"retries,omitempty"`
	RetryBackoff    string `json:"retry_backoff,omitempty"`
	ReplicaTimeout  string `json:"replica_timeout,omitempty"`
	Checkpoint      string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	Resume          string `json:"resume,omitempty"`
}

// UnmarshalJSON decodes a run section strictly, and accepts and drops
// two retired knobs, each still type-checked as an integer:
// structural_threshold (from when routing had a dense and a structural
// mode) and workers (from when one replica's ticks could be sharded).
// Specs that carry them still load — a daemon's persisted jobs among
// them — and Canonical never writes them back.
func (r *Run) UnmarshalJSON(data []byte) error {
	type plain Run
	var v struct {
		plain
		StructuralThreshold *int `json:"structural_threshold"`
		Workers             *int `json:"workers"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*r = Run(v.plain)
	return nil
}

// Axis is one sweep dimension: a dot-path into the spec ("worm.beta",
// "defenses.0.rate", "seed") and the values the path takes, in sweep
// order. Values are raw JSON so one axis syntax covers numbers,
// strings, and booleans; a value of the wrong type for its path is
// rejected when the grid point re-parses.
type Axis struct {
	Path   string            `json:"path"`
	Values []json.RawMessage `json:"values"`
}

// Parse decodes a scenario spec from JSON or YAML (auto-detected: a
// document whose first non-space byte is '{' is JSON) and verifies the
// format/version envelope. Decoding is strict: unknown fields are
// errors.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty document")
	}
	if trimmed[0] != '{' {
		doc, err := yamlToJSON(data)
		if err != nil {
			return nil, fmt.Errorf("spec: yaml: %w", err)
		}
		data = doc
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	if s.Format != Format {
		return nil, fmt.Errorf("spec: unrecognized format %q (want %q)", s.Format, Format)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("spec: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	return &s, nil
}

// Canonical renders the spec in its canonical encoding: two-space
// indented JSON with a trailing newline. Parse(Canonical(s)) is the
// identity, and Canonical(Parse(doc)) == doc for any doc already in
// canonical form — the byte-identity the golden spec fixtures pin.
func (s *Spec) Canonical() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: marshal: %w", err)
	}
	return append(buf, '\n'), nil
}

// Compiled is one runnable grid point: the lowered scenario, its run
// options, and the replica count.
type Compiled struct {
	// Name labels the point: the spec name plus, for grid points, the
	// axis assignments ("sweep[worm.beta=0.4]").
	Name     string
	Scenario core.Scenario
	Options  core.RunOptions
	// Runs is the number of replicas to average (>= 1).
	Runs int
}

// Compile lowers the spec (ignoring any grid — see Expand) onto the
// core facade and validates the result, so every error a scenario can
// raise surfaces before a batch is scheduled.
func (s *Spec) Compile() (*Compiled, error) {
	sc := core.Scenario{
		Ticks:           s.Ticks,
		Seed:            s.Seed,
		TopologySeed:    s.TopologySeed,
		InitialInfected: s.InitialInfected,
		MaxQueue:        s.MaxQueue,
		Drop:            s.Drop,
		HostsOnly:       s.HostsOnly,
	}

	switch s.Topology.Kind {
	case "star":
		sc.Topology = core.Star(s.Topology.Nodes)
	case "powerlaw":
		m := s.Topology.Edges
		if m == 0 {
			m = 1
		}
		sc.Topology = core.PowerLawM(s.Topology.Nodes, m)
	case "enterprise":
		sc.Topology = core.Enterprise(topology.HierarchicalConfig{
			Backbones:      s.Topology.Backbones,
			EdgesPer:       s.Topology.EdgesPerBackbone,
			HostsPerSubnet: s.Topology.HostsPerSubnet,
		})
	case "twolevel":
		sc.Topology = core.ASInternet(topology.TwoLevelConfig{
			ASes:            s.Topology.ASes,
			AttachM:         s.Topology.AttachM,
			TransitFraction: s.Topology.TransitFraction,
			HostsPerStub:    s.Topology.HostsPerStub,
		})
	default:
		return nil, fmt.Errorf("spec: unknown topology kind %q (want star, powerlaw, enterprise, twolevel)", s.Topology.Kind)
	}

	switch s.Worm.Kind {
	case "random":
		sc.Worm = core.RandomWorm(s.Worm.Beta)
	case "local":
		sc.Worm = core.LocalPreferentialWorm(s.Worm.Beta, s.Worm.LocalPref)
	case "sequential":
		sc.Worm = core.SequentialWorm(s.Worm.Beta)
	default:
		return nil, fmt.Errorf("spec: unknown worm kind %q (want random, local, sequential)", s.Worm.Kind)
	}
	sc.Worm.ScansPerTick = s.Worm.ScansPerTick
	sc.Worm.ProbeFirst = s.Worm.ProbeFirst

	for i, d := range s.Defenses {
		var ds core.DefenseSpec
		switch d.Kind {
		case "none":
			ds = core.NoDefense()
		case "host":
			ds = core.HostRateLimit(d.Fraction, d.Rate)
		case "edge":
			ds = core.EdgeRateLimit(d.Rate)
		case "backbone":
			if d.Weighted {
				ds = core.BackboneRateLimitWeighted(d.Rate)
			} else {
				ds = core.BackboneRateLimit(d.Rate)
			}
		case "hub":
			ds = core.HubCap(d.HubCap)
		case "overrides":
			rates := make(map[int]float64, len(d.Overrides))
			for k, v := range d.Overrides {
				node, err := strconv.Atoi(k)
				if err != nil {
					return nil, fmt.Errorf("spec: defenses[%d]: override key %q is not a node id", i, k)
				}
				rates[node] = v
			}
			ds = core.ScanRateOverrides(rates)
		case "throttle":
			ds = core.HostContactThrottle(d.WorkingSet, d.Period, d.Hosts)
		default:
			return nil, fmt.Errorf("spec: defenses[%d]: unknown kind %q", i, d.Kind)
		}
		if i == 0 {
			sc.Defense = ds
		} else {
			sc.Defenses = append(sc.Defenses, ds)
		}
	}

	if s.Quarantine != nil {
		sc.DynamicQuarantine = &core.QuarantineSpec{
			TriggerScansPerTick: s.Quarantine.TriggerScansPerTick,
			TriggerLevel:        s.Quarantine.TriggerLevel,
			Delay:               s.Quarantine.Delay,
		}
	}
	if s.Immunize != nil {
		sc.Immunize = &core.ImmunizationSpec{
			StartLevel: s.Immunize.StartLevel,
			StartTick:  s.Immunize.StartTick,
			Mu:         s.Immunize.Mu,
		}
	}
	if s.Faults != nil {
		p := &fault.Profile{
			Seed:                 s.Faults.Seed,
			FalseAlarmPerTick:    s.Faults.FalseAlarmPerTick,
			MissRate:             s.Faults.MissRate,
			ImmunizationLossRate: s.Faults.ImmunizationLossRate,
			ImmunizationDelay:    s.Faults.ImmunizationDelay,
		}
		for _, w := range s.Faults.LimiterOutages {
			p.LimiterOutages = append(p.LimiterOutages, fault.Window{Start: w.Start, End: w.End})
		}
		sc.Faults = p
	}
	if s.Observe != nil {
		sc.RecordInfections = s.Observe.Infections
		sc.TrackSubnets = s.Observe.Subnets
		sc.TrackLatency = s.Observe.Latency
	}

	c := &Compiled{Name: s.Name, Scenario: sc, Runs: 1}
	if c.Name == "" {
		c.Name = "scenario"
	}
	if s.Run != nil {
		r := s.Run
		if r.Runs != 0 {
			if r.Runs < 1 {
				return nil, fmt.Errorf("spec: run.runs must be >= 1, got %d", r.Runs)
			}
			c.Runs = r.Runs
		}
		c.Options = core.RunOptions{
			Jobs:            r.Jobs,
			Check:           r.Check,
			KeepGoing:       r.KeepGoing,
			Retries:         r.Retries,
			Checkpoint:      r.Checkpoint,
			CheckpointEvery: r.CheckpointEvery,
			Resume:          r.Resume,
		}
		var err error
		if c.Options.Timeout, err = parseDuration("run.timeout", r.Timeout); err != nil {
			return nil, err
		}
		if c.Options.RetryBackoff, err = parseDuration("run.retry_backoff", r.RetryBackoff); err != nil {
			return nil, err
		}
		if c.Options.ReplicaTimeout, err = parseDuration("run.replica_timeout", r.ReplicaTimeout); err != nil {
			return nil, err
		}
	}

	if s.Workload != nil {
		c.Options.Workload = &core.WorkloadSpec{
			Kind:            s.Workload.Kind,
			Path:            s.Workload.Path,
			TickMS:          s.Workload.TickMS,
			DurationMS:      s.Workload.DurationMS,
			Seed:            s.Workload.Seed,
			Normal:          s.Workload.Normal,
			Servers:         s.Workload.Servers,
			P2P:             s.Workload.P2P,
			Infected:        s.Workload.Infected,
			BlasterFraction: s.Workload.BlasterFraction,
			WormOnsetMS:     s.Workload.WormOnsetMS,
		}
	}

	if err := c.Options.Validate(); err != nil {
		return nil, err
	}
	if err := c.Scenario.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the whole spec, including every grid point, without
// running anything.
func (s *Spec) Validate() error {
	_, err := s.Expand()
	return err
}

// parseDuration parses an optional duration string field.
func parseDuration(field, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("spec: %s: %w", field, err)
	}
	return d, nil
}
