// Package sim is the discrete-event worm-propagation simulator, the
// stand-in for the ns-2 substrate the paper built on. It reproduces the
// mechanics of Section 5.4: at every tick each infected node attempts an
// infection with probability β against a strategy-chosen target; the
// infection packet is routed hop-by-hop along shortest paths; links
// incident to rate-limited nodes carry at most a capped number of
// packets per tick (base rate 10, scaled by routing-table link weight)
// and queue the excess; an optional node-level cap models hub-style
// limiting; and an optional delayed-immunization process patches both
// susceptible and infected nodes with probability µ per tick.
//
// Config's map-shaped options (NodeCaps, ScanRateOverride, LimitedNodes,
// LimitedLinks) are translated into dense index-addressed slices when
// the engine is built; the per-tick hot path performs no map lookups
// (see DESIGN.md, "Engine data layout").
//
// A run is deterministic by construction: one serial tick loop, with
// every node drawing from its own counter-mode RNG stream, so a config
// and seed fix the series byte for byte (DESIGN.md §12, "Determinism
// contract"). Replicas run in parallel (MultiRunContext), never the
// phases of one run. Routing is structural (routing.Structural): host
// up-links plus a bit-packed core table instead of an O(N²) hop table,
// so topologies with millions of hosts fit in memory.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/ratelimit"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/worm"
)

// QueuePolicy controls what happens to packets beyond a link's per-tick
// capacity.
type QueuePolicy uint8

const (
	// PolicyQueue keeps excess packets in the link's FIFO queue (the
	// paper's behaviour: "queuing the remaining packets").
	PolicyQueue QueuePolicy = iota
	// PolicyDrop discards packets beyond the per-tick capacity — the
	// ablation alternative.
	PolicyDrop
)

// DefaultBaseRate is the paper's base communication rate for
// rate-limited links: 10 packets per tick.
const DefaultBaseRate = 10

// Immunization configures the delayed patching process of Section 6.
type Immunization struct {
	// StartTick starts patching at this tick if >= 0.
	StartTick int
	// StartLevel starts patching when the infected fraction first
	// reaches this level, if in (0, 1]. Used when StartTick < 0.
	StartLevel float64
	// Mu is the per-tick patch probability applied to every live node
	// (susceptible and infected) once started.
	Mu float64
	// SusceptibleOnly restricts patching to still-susceptible nodes —
	// the ablation counterpart to the paper's model, which removes
	// infected hosts too (its dI/dt carries a −µI term).
	SusceptibleOnly bool
}

// validate checks the immunization parameters.
func (im *Immunization) validate() error {
	if im.Mu < 0 || im.Mu > 1 {
		return fmt.Errorf("sim: immunization mu %v out of [0,1]", im.Mu)
	}
	if im.StartTick < 0 && (im.StartLevel <= 0 || im.StartLevel > 1) {
		return fmt.Errorf("sim: immunization needs StartTick >= 0 or StartLevel in (0,1], got %d/%v",
			im.StartTick, im.StartLevel)
	}
	return nil
}

// Quarantine configures dynamic activation of the rate-limiting
// defense: nothing is throttled until the worm is detected.
type Quarantine struct {
	// TriggerScansPerTick activates the defense when the total worm
	// packets generated in one tick reach this count — the signal a
	// backbone scan detector would see. <= 0 disables this trigger.
	TriggerScansPerTick int
	// TriggerLevel activates the defense when the infected fraction
	// reaches this level (a perfect-knowledge trigger, for comparing
	// against detector-driven activation). <= 0 disables this trigger.
	TriggerLevel float64
	// Delay postpones activation this many ticks after the trigger
	// fires — detector reporting plus filter-deployment lag.
	Delay int
}

// validate checks the quarantine parameters.
func (q *Quarantine) validate() error {
	if q.TriggerScansPerTick <= 0 && q.TriggerLevel <= 0 {
		return fmt.Errorf("sim: quarantine needs a trigger (scans/tick or level)")
	}
	if q.TriggerLevel > 1 {
		return fmt.Errorf("sim: quarantine trigger level %v out of (0,1]", q.TriggerLevel)
	}
	if q.Delay < 0 {
		return fmt.Errorf("sim: quarantine delay %d must be >= 0", q.Delay)
	}
	return nil
}

// Config fully describes one simulation run.
type Config struct {
	// Graph is the network topology (required, connected).
	Graph *topology.Graph
	// Roles labels each node (optional; defaults to all hosts).
	Roles []topology.Role
	// Subnet is the subnet index of each node (optional; computed from
	// Roles when nil and needed by the strategy).
	Subnet []int
	// Net, when non-nil, supplies prebuilt shared routing state for
	// Graph (see BuildNet). It must have been built from this exact
	// Graph; Validate rejects a mismatched pair. Use it to amortize
	// routing construction across several runs or batches over the
	// same topology — e.g. the grid points of a parameter sweep.
	Net *Net

	// Beta is the per-scan probability that an infected node emits an
	// infection packet (the paper's β, e.g. 0.8).
	Beta float64
	// ScansPerTick is how many scan attempts an infected node makes per
	// tick (default 1). The paper's "attempt to infect everyone else
	// with infection probability β" implies many attempts per tick; the
	// figure harness uses a moderate value so that router rate limits
	// carry real load, as in the ns-2 experiments.
	ScansPerTick int
	// Strategy picks infection targets (required; e.g.
	// worm.NewRandomFactory()).
	Strategy worm.Factory
	// InitialInfected is the number of seed infections (>= 1), placed
	// uniformly at random.
	InitialInfected int
	// Ticks is the simulation horizon.
	Ticks int
	// Seed drives all randomness; identical configs with identical seeds
	// produce identical results.
	Seed int64

	// LimitedNodes lists nodes whose incident links are rate limited.
	LimitedNodes []int
	// LimitedLinks lists individual links to rate limit, in addition to
	// the links implied by LimitedNodes. Edge-router deployments use
	// this to limit only subnet uplinks: traffic between two hosts of
	// the same subnet transits the edge router without leaving the
	// subnet and is not throttled (Section 5.2's model).
	LimitedLinks []routing.LinkID
	// BaseRate is the per-tick packet budget of a weight-1 limited link
	// (default DefaultBaseRate). Fractional rates are honoured via a
	// credit accumulator: 0.1 means one packet every ten ticks.
	BaseRate float64
	// LinkWeights scales each limited link's budget (nil = uniform 1).
	// Use routing.Table.LinkWeights to reproduce the paper's
	// routing-table-proportional weights.
	LinkWeights map[routing.LinkID]float64
	// NodeCaps limits the total packets a node may forward per tick
	// (hub-style node-level rate limiting). Zero/absent = unlimited.
	NodeCaps map[int]int
	// ScanRateOverride replaces Beta for specific nodes: host-level rate
	// limiting à la Williamson reduces a filtered host's outgoing
	// contact rate to β2 (the model's "contact rate allowed by the
	// filter") rather than capping a link.
	ScanRateOverride map[int]float64
	// HostLimiterNodes lists nodes whose outgoing scans are gated by a
	// concrete contact limiter (a Williamson throttle, unique-IP window,
	// DNS throttle, ...) built per node by HostLimiterFactory. This is
	// the mechanism-level alternative to ScanRateOverride: the limiter
	// sees the actual per-tick contact stream.
	HostLimiterNodes []int
	// HostLimiterFactory builds one limiter per node in
	// HostLimiterNodes (required when that list is non-empty).
	HostLimiterFactory func() ratelimit.ContactLimiter
	// Policy selects queueing or dropping at capacity (default queue).
	Policy QueuePolicy
	// MaxQueue bounds each link's FIFO queue (0 = unbounded). ns-2's
	// default DropTail buffer is 50 packets; packets arriving at a full
	// queue are dropped.
	MaxQueue int

	// Immunize, when non-nil, enables delayed immunization.
	Immunize *Immunization

	// Quarantine, when non-nil, makes the rate-limiting deployment
	// *dynamic* (the paper's title): the limits in LimitedNodes /
	// LimitedLinks / NodeCaps stay inactive until the detection
	// condition fires, modeling automated detection and response
	// rather than an always-on deployment.
	Quarantine *Quarantine

	// Replay, when non-nil, drives the generate phase from a trace-replay
	// workload (see replay.go): worm scans and benign background flows
	// come from the configured Workload stream instead of β draws,
	// competing for the same host rate-limiter credits. Beta, Strategy,
	// ScansPerTick, and ProbeFirst are ignored on a replay run (Strategy
	// must still be set — restored engines rebuild pickers through it).
	Replay *ReplayConfig

	// Faults, when non-nil, injects domain faults into the defense: an
	// imperfect detector (false alarms, misses), limiter outage windows,
	// and lost or delayed immunization. The injector draws from its own
	// seeded RNG, never the engine's, so the worm dynamics of a faulted
	// run diverge only through the fault *effects*, and the fault RNG
	// state rides along in checkpoints.
	Faults *fault.Profile

	// CheckpointEvery, when > 0, snapshots the engine after every
	// CheckpointEvery-th completed tick and hands the snapshot to
	// Checkpoint. A checkpoint failure aborts the run.
	CheckpointEvery int
	// Checkpoint receives periodic snapshots (required when
	// CheckpointEvery > 0 for single-engine runs; MultiRun fills it per
	// replica from CheckpointFactory). Typically sim.WriteSnapshot into
	// a run directory.
	Checkpoint func(*Snapshot) error
	// CheckpointFactory builds the per-replica checkpoint sink for
	// MultiRun batches (run is the replica index). Called from worker
	// goroutines; must be safe for concurrent calls with distinct run
	// values. Single-engine runs ignore it.
	CheckpointFactory func(run int) func(*Snapshot) error
	// ResumeFactory, when non-nil, lets MultiRun resume replicas from
	// checkpoints: it returns the snapshot to resume replica run from,
	// or nil to start that replica fresh. Single-engine runs ignore it
	// (use Restore directly).
	ResumeFactory func(run int) (*Snapshot, error)

	// HostsOnly restricts infection to RoleHost nodes (routers are
	// infrastructure). Default false: every node is susceptible, as in
	// the paper's "percentage of nodes infected" plots.
	HostsOnly bool

	// ProbeFirst makes the worm probe each target (ICMP echo) and wait
	// for the reply before sending the exploit — Welchia's behaviour.
	// Each infection then needs three one-way trips instead of one,
	// tripling the traffic exposed to rate limiting.
	ProbeFirst bool

	// Collector, when non-nil, receives structured per-tick metrics and
	// events (see internal/obs). It is owned by this run's engine and
	// called from the engine's goroutine only. With no collector the
	// engine skips all metrics assembly.
	Collector obs.Collector
	// CollectorFactory, when non-nil, builds one collector per replica
	// for MultiRun batches (run is the replica index, 0-based). It is
	// called from worker goroutines and must be safe for concurrent
	// calls with distinct run values. Single-engine runs ignore it.
	CollectorFactory func(run int) obs.Collector
	// Check enables the per-tick invariant audit: every tick the
	// engine's O(1) counters and active-set bitmaps are cross-checked
	// against ground truth recomputed from first principles. A violation
	// aborts the run with an error matching obs.ErrInvariant. Costs
	// O(links + nodes) per tick; meant for tests, CI, and debugging.
	Check bool

	// RecordInfections keeps a per-infection genealogy log (tick, victim,
	// source) in the result — who infected whom, enabling
	// infection-tree analysis. Off by default (costs memory).
	RecordInfections bool
	// TrackSubnets records the per-tick mean infected fraction *within
	// infected subnets* (the metric of Figures 3(b) and 5). Requires
	// subnet information (Subnet or Roles).
	TrackSubnets bool
	// TrackLatency records the per-tick mean end-to-end delivery latency
	// of worm packets — the "rate limiting buys time" signal: congested
	// limited links show up as rising latency before they show up in
	// the infection curve.
	TrackLatency bool
}

// Common configuration errors.
var (
	ErrNoGraph    = errors.New("sim: config requires a graph")
	ErrNoStrategy = errors.New("sim: config requires a target strategy")
)

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Graph == nil {
		return ErrNoGraph
	}
	if c.Strategy == nil {
		return ErrNoStrategy
	}
	if c.Net != nil && c.Net.graph != c.Graph {
		return fmt.Errorf("sim: config.Net was built from a different graph than config.Graph")
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("sim: beta %v out of [0,1]", c.Beta)
	}
	if c.Replay != nil {
		if err := c.Replay.validate(c.Graph.N()); err != nil {
			return err
		}
	}
	if c.Replay != nil && len(c.Replay.WormHosts) > 0 {
		// The trace's infected class seeds the run; random placement
		// would double-seed.
		if c.InitialInfected != 0 {
			return fmt.Errorf("sim: replay worm hosts replace random seeding; set InitialInfected to 0, got %d",
				c.InitialInfected)
		}
	} else if c.InitialInfected < 1 || c.InitialInfected > c.Graph.N() {
		return fmt.Errorf("sim: initial infected %d out of [1,%d]", c.InitialInfected, c.Graph.N())
	}
	if c.Ticks < 1 {
		return fmt.Errorf("sim: ticks %d must be >= 1", c.Ticks)
	}
	if c.Roles != nil && len(c.Roles) != c.Graph.N() {
		return fmt.Errorf("sim: roles length %d != nodes %d", len(c.Roles), c.Graph.N())
	}
	if c.Subnet != nil && len(c.Subnet) != c.Graph.N() {
		return fmt.Errorf("sim: subnet length %d != nodes %d", len(c.Subnet), c.Graph.N())
	}
	if c.BaseRate < 0 {
		return fmt.Errorf("sim: base rate %v must be >= 0", c.BaseRate)
	}
	if c.ScansPerTick < 0 {
		return fmt.Errorf("sim: scans per tick %d must be >= 0", c.ScansPerTick)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("sim: max queue %d must be >= 0", c.MaxQueue)
	}
	for _, u := range c.LimitedNodes {
		if u < 0 || u >= c.Graph.N() {
			return fmt.Errorf("sim: limited node %d out of range", u)
		}
	}
	for _, l := range c.LimitedLinks {
		if !c.Graph.HasEdge(l.U, l.V) {
			return fmt.Errorf("sim: limited link %v does not exist", l)
		}
	}
	for u, cap := range c.NodeCaps {
		if u < 0 || u >= c.Graph.N() {
			return fmt.Errorf("sim: node cap for %d out of range", u)
		}
		if cap < 0 {
			return fmt.Errorf("sim: node cap %d for node %d must be >= 0", cap, u)
		}
	}
	for u, b := range c.ScanRateOverride {
		if u < 0 || u >= c.Graph.N() {
			return fmt.Errorf("sim: scan rate override for %d out of range", u)
		}
		if b < 0 || b > 1 {
			return fmt.Errorf("sim: scan rate override %v for node %d out of [0,1]", b, u)
		}
	}
	if len(c.HostLimiterNodes) > 0 && c.HostLimiterFactory == nil {
		return fmt.Errorf("sim: host limiter nodes set without a factory")
	}
	for _, u := range c.HostLimiterNodes {
		if u < 0 || u >= c.Graph.N() {
			return fmt.Errorf("sim: host limiter node %d out of range", u)
		}
	}
	if c.Immunize != nil {
		if err := c.Immunize.validate(); err != nil {
			return err
		}
	}
	if c.Quarantine != nil {
		if err := c.Quarantine.validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("sim: checkpoint interval %d must be >= 0", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.Checkpoint == nil && c.CheckpointFactory == nil {
		return fmt.Errorf("sim: checkpoint interval set without a checkpoint sink")
	}
	return nil
}

// Infection is one entry of the infection genealogy: Source's scan
// infected Victim at Tick. Seed infections have Source -1 and Tick -1.
// Fields are int32: with RecordInfections on, the log holds one entry
// per ever-infected node, and at millions of hosts the narrow fields
// halve its footprint.
type Infection struct {
	Tick   int32
	Victim int32
	Source int32
}

// Result holds the per-tick series of one run (index 0 = state after the
// first tick; all fractions are over the susceptible population size).
type Result struct {
	// Infected is the currently infected fraction per tick.
	Infected []float64
	// EverInfected is the cumulative ever-infected fraction per tick —
	// Figure 8's "total percentage of nodes ever infected".
	EverInfected []float64
	// Immunized is the removed (patched) fraction per tick.
	Immunized []float64
	// Backlog is the total number of queued packets per tick, the
	// congestion signal of rate-limited deployments.
	Backlog []int
	// WithinSubnet is the per-tick mean infected fraction within subnets
	// that have at least one infection (Config.TrackSubnets).
	WithinSubnet []float64
	// MeanLatency is the per-tick mean delivery latency of worm packets
	// in ticks (Config.TrackLatency); 0 for ticks with no deliveries.
	MeanLatency []float64
	// Infections is the genealogy log (Config.RecordInfections). It is
	// per-run data and is not averaged by MultiRun (the first run's log
	// is kept).
	Infections []Infection
	// QuarantineTick is the tick the dynamic defense engaged: 0 for an
	// always-on deployment, -1 if a configured quarantine never
	// triggered. Per-run data; MultiRun keeps the first run's value.
	QuarantineTick int
	// Counters are the batch-level observability totals, summed key-wise
	// across replicas (see obs.Summary.Counters for the key set). Only
	// populated by MultiRun when Config.CollectorFactory builds
	// collectors implementing obs.Summarizer; nil otherwise. Key-wise
	// summation is order-independent, so the map is identical for every
	// job count.
	Counters map[string]int64
}

// InfectionDepths returns, for every ever-infected node, its generation
// depth in the infection tree (seeds are depth 0). Requires a recorded
// genealogy; returns nil otherwise.
func (r *Result) InfectionDepths() map[int]int {
	if len(r.Infections) == 0 {
		return nil
	}
	depth := make(map[int]int, len(r.Infections))
	for _, inf := range r.Infections {
		if inf.Source < 0 {
			depth[int(inf.Victim)] = 0
			continue
		}
		depth[int(inf.Victim)] = depth[int(inf.Source)] + 1
	}
	return depth
}

// FinalInfected returns the last currently-infected fraction.
func (r *Result) FinalInfected() float64 {
	if len(r.Infected) == 0 {
		return math.NaN()
	}
	return r.Infected[len(r.Infected)-1]
}

// FinalEverInfected returns the last ever-infected fraction.
func (r *Result) FinalEverInfected() float64 {
	if len(r.EverInfected) == 0 {
		return math.NaN()
	}
	return r.EverInfected[len(r.EverInfected)-1]
}

// TimeToLevel returns the first tick (1-based, interpolated) at which
// the infected fraction reaches level, or NaN if never.
func (r *Result) TimeToLevel(level float64) float64 {
	for i, v := range r.Infected {
		if v >= level {
			return float64(i + 1)
		}
	}
	return math.NaN()
}
