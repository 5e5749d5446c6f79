// Package obs is the engine observability layer: structured per-tick
// metrics, quarantine/immunization events, and the invariant audit the
// simulator runs under `-check`.
//
// The simulation engine fills a TickMetrics record every tick and hands
// it to a Collector when one is configured; with no collector the
// engine only maintains a handful of plain integer counters, so the
// hot path pays (near) nothing. Collectors in this package:
//
//   - Ring: keeps the last N ticks plus all events and a running
//     Summary — the per-replica store behind `wormsim -metrics`.
//   - Tally: keeps only the running Summary — the cheap aggregate
//     used when whole batches (cmd/figures) report totals.
//
// The invariant audit (Auditor.Check over an engine-built Snapshot)
// cross-checks the engine's O(1) counters and active-set bitmaps
// against ground truth recomputed from first principles every tick.
// It exists to make accounting bugs loud: the trigger-rate fix this
// layer shipped with was confirmed by exactly these checks.
package obs

// TickMetrics is one simulation tick's structured counters. All packet
// counts are for this tick alone (not cumulative); population counts
// (Infected, EverInfected, Immunized) are the state at the end of the
// tick.
type TickMetrics struct {
	// Tick is the 0-based simulation tick.
	Tick int `json:"tick"`
	// ScanAttempts counts worm scans measured at the monitor point:
	// after the β roll and self-target skip, before any host contact
	// limiter. This is the pre-throttle attempt stream a backbone
	// detector sees — the quantity quarantine triggers compare against.
	ScanAttempts int `json:"scan_attempts"`
	// ThrottledContacts counts scan attempts a host contact limiter
	// blocked this tick (always <= ScanAttempts).
	ThrottledContacts int `json:"throttled_contacts"`
	// BenignContacts counts background (normal/server/P2P) connection
	// attempts measured at the same monitor point as ScanAttempts.
	// Always zero for synthetic β-scan workloads; trace-replay
	// workloads fill it from the benign flows of the trace.
	BenignContacts int `json:"benign_contacts"`
	// BenignThrottled counts benign contacts a host contact limiter
	// blocked this tick (always <= BenignContacts) — the per-tick
	// collateral-damage signal of a rate-limiting defense.
	BenignThrottled int `json:"benign_throttled"`
	// PacketsGenerated counts packets injected into the network this
	// tick: surviving scans plus probe replies and probe-triggered
	// exploits.
	PacketsGenerated int `json:"packets_generated"`
	// PacketsDelivered counts packets that reached their destination.
	PacketsDelivered int `json:"packets_delivered"`
	// PacketsDropped counts packets lost to DropTail or drop policy.
	PacketsDropped int `json:"packets_dropped"`
	// Backlog is the number of packets queued on links at tick end.
	Backlog int `json:"backlog"`
	// Infected / EverInfected / Immunized are node counts at tick end.
	Infected     int `json:"infected"`
	EverInfected int `json:"ever_infected"`
	Immunized    int `json:"immunized"`
	// NewInfections / NewImmunized are this tick's state transitions.
	NewInfections int `json:"new_infections"`
	NewImmunized  int `json:"new_immunized"`
	// QuarantineActive reports whether the rate-limiting defense was in
	// force during this tick (always true for always-on deployments).
	QuarantineActive bool `json:"quarantine_active"`
}

// Event is a discrete state transition worth flagging in a metrics
// stream: quarantine trigger/activation, immunization onset.
type Event struct {
	// Tick is the tick the transition took effect.
	Tick int `json:"tick"`
	// Kind identifies the transition: "quarantine_triggered",
	// "quarantine_activated", "immunization_started".
	Kind string `json:"kind"`
	// Detail is an optional human-readable annotation.
	Detail string `json:"detail,omitempty"`
}

// Event kinds emitted by the engine.
const (
	EventQuarantineTriggered = "quarantine_triggered"
	EventQuarantineActivated = "quarantine_activated"
	EventImmunizationStarted = "immunization_started"
)

// Collector receives the engine's per-tick metrics and events. A
// collector is owned by exactly one engine (one simulation replica) and
// is called from that replica's goroutine only; implementations need no
// locking. MultiRun batches build one collector per replica.
type Collector interface {
	// Tick is called once at the end of every simulated tick.
	Tick(m TickMetrics)
	// Event is called when a discrete transition happens, before the
	// Tick call of the same tick.
	Event(ev Event)
}

// Summarizer is implemented by collectors that can report a running
// Summary; batch drivers use it to aggregate per-replica stats.
type Summarizer interface {
	Summary() Summary
}

// Summary is the running aggregate of a metrics stream.
type Summary struct {
	// Ticks is the number of ticks observed.
	Ticks int `json:"ticks"`
	// Totals over all observed ticks.
	ScanAttempts      int64 `json:"scan_attempts"`
	ThrottledContacts int64 `json:"throttled_contacts"`
	BenignContacts    int64 `json:"benign_contacts"`
	BenignThrottled   int64 `json:"benign_throttled"`
	PacketsGenerated  int64 `json:"packets_generated"`
	PacketsDelivered  int64 `json:"packets_delivered"`
	PacketsDropped    int64 `json:"packets_dropped"`
	Infections        int64 `json:"infections"`
	Immunizations     int64 `json:"immunizations"`
	// PeakBacklog is the maximum end-of-tick queue occupancy seen.
	PeakBacklog int `json:"peak_backlog"`
	// Final* are the population counts at the last observed tick.
	FinalInfected     int `json:"final_infected"`
	FinalEverInfected int `json:"final_ever_infected"`
	FinalImmunized    int `json:"final_immunized"`
	// QuarantineTick is the tick a quarantine_activated event fired
	// (-1 when none was observed).
	QuarantineTick int `json:"quarantine_tick"`
}

// observe folds one tick into the summary.
func (s *Summary) observe(m TickMetrics) {
	if s.Ticks == 0 && s.QuarantineTick == 0 {
		s.QuarantineTick = -1 // zero value means "not yet observed"
	}
	s.Ticks++
	s.ScanAttempts += int64(m.ScanAttempts)
	s.ThrottledContacts += int64(m.ThrottledContacts)
	s.BenignContacts += int64(m.BenignContacts)
	s.BenignThrottled += int64(m.BenignThrottled)
	s.PacketsGenerated += int64(m.PacketsGenerated)
	s.PacketsDelivered += int64(m.PacketsDelivered)
	s.PacketsDropped += int64(m.PacketsDropped)
	s.Infections += int64(m.NewInfections)
	s.Immunizations += int64(m.NewImmunized)
	if m.Backlog > s.PeakBacklog {
		s.PeakBacklog = m.Backlog
	}
	s.FinalInfected = m.Infected
	s.FinalEverInfected = m.EverInfected
	s.FinalImmunized = m.Immunized
}

// event folds one event into the summary.
func (s *Summary) event(ev Event) {
	if ev.Kind == EventQuarantineActivated {
		s.QuarantineTick = ev.Tick
	}
}

// Counters flattens the summed (mergeable-by-addition) totals into the
// map shape runner.Stats aggregates across tasks. Non-additive fields
// (peaks, finals, activation ticks) are deliberately excluded.
func (s Summary) Counters() map[string]int64 {
	return map[string]int64{
		"ticks":              int64(s.Ticks),
		"scan_attempts":      s.ScanAttempts,
		"throttled_contacts": s.ThrottledContacts,
		"benign_contacts":    s.BenignContacts,
		"benign_throttled":   s.BenignThrottled,
		"packets_generated":  s.PacketsGenerated,
		"packets_delivered":  s.PacketsDelivered,
		"packets_dropped":    s.PacketsDropped,
		"infections":         s.Infections,
		"immunizations":      s.Immunizations,
	}
}

// Tally is the minimal collector: it keeps only the running Summary.
// One Tally serves one replica; it is not safe for concurrent use.
type Tally struct {
	s Summary
}

// NewTally returns an empty summary-only collector.
func NewTally() *Tally {
	return &Tally{s: Summary{QuarantineTick: -1}}
}

// Tick implements Collector.
func (t *Tally) Tick(m TickMetrics) { t.s.observe(m) }

// Event implements Collector.
func (t *Tally) Event(ev Event) { t.s.event(ev) }

// Summary implements Summarizer.
func (t *Tally) Summary() Summary { return t.s }
