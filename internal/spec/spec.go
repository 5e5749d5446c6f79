// Package spec is the declarative scenario layer: a versioned JSON/YAML
// file format describing a complete experiment — topology, worm,
// defense stack, quarantine, immunization, fault profile, trace-replay
// workload, observability switches, run options, and an optional
// parameter grid. A Spec is the module's one scenario vocabulary: the
// CLIs, the wormsimd daemon, and library callers all describe an
// experiment point as a Spec. The package lowers a Spec straight onto
// sim.Config — (*Spec).Config is the one lowering, workload included —
// and its run section onto core.RunOptions; Compile lowers a point
// once, Compiled.Run executes that through core.Run, Spec.Model returns
// the paper's matching closed form, and the sweep engine compiles each
// grid point as it runs it, over topology state the points share.
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
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Format is the envelope identifier every scenario spec must carry.
const Format = "wormsim-scenario"

// Version is the spec schema version this build reads and writes.
const Version = 1

// Spec is the on-disk scenario description. Field names (via their
// JSON tags) are the stable file-format vocabulary; the YAML form uses
// the same names. Zero values get the defaults noted on each field.
type Spec struct {
	// Format must be "wormsim-scenario".
	Format string `json:"format"`
	// Version must match Version; skew is an explicit parse error.
	Version int `json:"version"`
	// Name labels the scenario in sweep output and figure files.
	Name string `json:"name,omitempty"`

	Topology Topology `json:"topology"`
	Worm     Worm     `json:"worm"`
	// Defenses is the rate-limiting deployment stack, applied in order;
	// a single entry is the defense Spec.Model describes. All stacked
	// defenses share the Quarantine trigger.
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

	// Workload, when set, replaces the worm's β-draw scan source with a
	// trace-replay workload; see Workload.
	Workload *Workload `json:"workload,omitempty"`

	Observe *Observe `json:"observe,omitempty"`
	Run     *Run     `json:"run,omitempty"`

	// Grid declares a parameter sweep: the cartesian product of the
	// axes, each axis a dot-path into this spec plus the values it
	// takes. Point(i) is the i-th grid point's spec.
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
	// Kind is one of "none"; "host" (a random Fraction of the hosts,
	// or of all nodes but a star's hub); "edge" (every edge router's
	// subnet uplinks, Fig 5); "edge_router" (every link of every edge
	// router, Fig 4); "backbone" (every backbone router's links); "hub"
	// (a star hub's forwarding cap); "backbone_cap" (every backbone
	// router's forwarding cap); "overrides"; "throttle". Stacked link
	// limits must share one Rate, and a stack takes one throttle.
	Kind string `json:"kind"`
	// Fraction is the host deployment fraction for "host".
	Fraction float64 `json:"fraction,omitempty"`
	// Rate is the link rate ("edge"/"edge_router"/"backbone") or
	// filtered scan rate ("host").
	Rate float64 `json:"rate,omitempty"`
	// HubCap is the per-node forwarding cap: the star hub's for "hub",
	// each backbone router's for "backbone_cap".
	HubCap int `json:"hub_cap,omitempty"`
	// Weighted scales "backbone" link budgets by routing-table weight.
	Weighted bool `json:"weighted,omitempty"`
	// Overrides pins per-node filtered scan rates for "overrides"
	// (keys are decimal node IDs — JSON objects key on strings).
	Overrides map[string]float64 `json:"overrides,omitempty"`
	// WorkingSet/Period/Hosts parameterize "throttle" (Williamson). The
	// engine never releases a denied contact later, so each host runs
	// the working set alone (ratelimit.WorkingSet): Period, the delay
	// queue's drain period, must be >= 1 but changes nothing.
	WorkingSet int   `json:"working_set,omitempty"`
	Period     int64 `json:"period,omitempty"`
	Hosts      int   `json:"hosts,omitempty"`
}

// Workload replaces the engine's β-draw scan source with a
// trace-replay workload: worm scans and benign background flows
// (normal clients, servers, P2P) stream tick by tick from a trace and
// compete for the same rate-limiter credits, so a run measures
// collateral damage — benign traffic a defense falsely throttles —
// alongside containment. The trace's millisecond timeline maps onto
// engine ticks via TickMS (tick t covers [t·TickMS, (t+1)·TickMS)).
// Trace host i replays on the topology's i-th host-role node, and when
// the trace has worm traffic its scanning hosts replace random seeding
// (InitialInfected).
//
// Replay replaces scan generation only: the spec's worm section still
// defines Beta for the analytic model and the target strategy required
// by checkpoint restore, but neither is consulted for scans during
// replay.
type Workload struct {
	// Kind is "synthetic" (stream the trace generator's four-class
	// traffic profile, internal/trace.GenConfig, without materializing a
	// trace) or "trace" (replay a serialized trace file, the tracegen
	// format).
	Kind string `json:"kind"`
	// Path is the trace file for kind "trace".
	Path string `json:"path,omitempty"`
	// TickMS is the trace milliseconds one engine tick spans (0 = 1000,
	// one simulated second per tick).
	TickMS int64 `json:"tick_ms,omitempty"`
	// DurationMS bounds the synthetic stream (0 = the scenario horizon,
	// Ticks·TickMS).
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Seed drives the synthetic generator (0 = the scenario seed).
	Seed int64 `json:"seed,omitempty"`
	// Normal/Servers/P2P/Infected are the synthetic class populations.
	// All zero means the paper's traffic mix scaled down to the
	// topology's host count.
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

// Quarantine makes the defense stack dynamic (the paper's title
// scenario): the stack stays inactive until the worm is detected and
// engages Delay ticks later.
type Quarantine struct {
	// TriggerScansPerTick fires the detector when one tick carries this
	// many worm packets.
	TriggerScansPerTick int `json:"trigger_scans_per_tick,omitempty"`
	// TriggerLevel fires the detector when the infected fraction
	// reaches this level — a perfect-knowledge trigger for comparing
	// against detector-driven activation (<= 0 disables it).
	TriggerLevel float64 `json:"trigger_level,omitempty"`
	// Delay is the detection-to-deployment lag in ticks.
	Delay int `json:"delay,omitempty"`
}

// Immunize configures delayed patching.
type Immunize struct {
	// StartLevel triggers patching when the infected fraction reaches
	// this level (used when StartTick is 0 or negative).
	StartLevel float64 `json:"start_level,omitempty"`
	// StartTick triggers patching at a fixed tick when positive.
	StartTick int `json:"start_tick,omitempty"`
	// Mu is the per-tick patch probability.
	Mu float64 `json:"mu"`
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

// Compiled is one runnable grid point: the sim.Config its spec lowered
// to, its run options, and the replica count.
type Compiled struct {
	// Name labels the point: the spec name plus, for grid points, the
	// axis assignments ("sweep[worm.beta=0.4]").
	Name    string
	Config  sim.Config
	Options core.RunOptions
	// Runs is the number of replicas to average (>= 1).
	Runs int
}

// Compile lowers the spec (ignoring any grid — see Point) once: its
// run section onto core.RunOptions and the scenario onto sim.Config
// over net, as Config does, validating both so every error a scenario
// can raise surfaces before a batch is scheduled. A "trace" workload's
// file is read here to find its worm hosts.
func (s *Spec) Compile(net *Net) (*Compiled, error) {
	c := &Compiled{Name: s.Name, Runs: 1}
	var err error
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
	if err = c.Options.Validate(); err != nil {
		return nil, err
	}
	if c.Config, err = s.Config(net); err != nil {
		return nil, err
	}
	if err := c.Config.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Run executes the point's replica batch through core.Run.
func (c *Compiled) Run(ctx context.Context) (*sim.Result, runner.Stats, error) {
	return core.Run(ctx, c.Config, c.Runs, c.Options)
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
