// Package fault is the deterministic fault-injection harness. Every
// fault it produces is derived from an explicit seed, so a failing
// chaos run is exactly reproducible — rerun with the same seed and the
// same replica panics at the same attempt, the same detector misses the
// same tick.
//
// Faults exist at two levels, mirroring the two layers of the system
// they exercise:
//
//   - System faults (Plan) act on the run orchestration: replica
//     panics, stalls, and transient errors, used to exercise the
//     runner's retry/keep-going machinery and checkpoint corruption
//     handling in tests and the `make chaos` smoke target.
//
//   - Domain faults (Profile / Injector) act inside the simulated
//     defense: detector false alarms and missed detections, rate-limiter
//     outage windows, and lost or delayed immunization messages,
//     threaded through the engine's trigger/limiter hooks. They model
//     the noisy, false-positive-prone detection the connection-failure
//     literature (Zhou et al.) builds on, and reproduce the paper's
//     degradation-under-imperfect-defense curves on purpose.
//
// The domain injector draws from its own counter-based RNG, never from
// the engine's: a run with a fault profile consumes exactly the same
// engine RNG stream as the fault-free run, so fault effects are
// attributable to the faults alone. The injector's state is a single
// uint64, which the engine snapshot carries for byte-identical resume.
package fault

import (
	"fmt"

	"repro/internal/splitmix"
)

// Rand is the injector's counter-mode SplitMix64 stream.
type Rand = splitmix.Rand

// NewRand seeds a stream.
func NewRand(seed int64) *Rand { return splitmix.New(uint64(seed)) }

// Window is a half-open tick interval [Start, End).
type Window struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Contains reports whether tick t falls inside the window.
func (w Window) Contains(t int) bool { return t >= w.Start && t < w.End }

// Profile configures the domain faults of one simulation run: how
// imperfect the detector, the limiters, and the immunization channel
// are. The zero value injects nothing.
type Profile struct {
	// Seed drives every probabilistic fault decision. Identical
	// profiles with identical seeds produce identical fault sequences.
	Seed int64
	// FalseAlarmPerTick is the per-tick probability that the detector
	// reports a worm that is not there, firing the quarantine trigger
	// spuriously. Drawn once per tick while the trigger is still armed.
	FalseAlarmPerTick float64
	// MissRate is the probability that a tick whose traffic genuinely
	// crosses the detection threshold goes unreported — the detector
	// misses it and gets another chance next tick. Models the paper's
	// delayed-detection sensitivity continuously.
	MissRate float64
	// LimiterOutages lists tick windows during which the entire
	// rate-limiting deployment is down: link budgets, node caps, and
	// host contact limiters are all bypassed, as if the filters crashed
	// or were misconfigured out of the path.
	LimiterOutages []Window
	// ImmunizationLossRate is the probability that one node's patch
	// event is lost in transit: the node stays unpatched this tick and
	// may be patched by a later retry of the process.
	ImmunizationLossRate float64
	// ImmunizationDelay postpones the start of the immunization process
	// by this many ticks after its trigger condition is met — the
	// dissemination lag of defense analyses (Shakkottai & Srikant).
	ImmunizationDelay int
}

// Validate checks the profile's parameters.
func (p *Profile) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: %s %v out of [0,1]", name, v)
		}
		return nil
	}
	if err := check("false-alarm rate", p.FalseAlarmPerTick); err != nil {
		return err
	}
	if err := check("miss rate", p.MissRate); err != nil {
		return err
	}
	if err := check("immunization loss rate", p.ImmunizationLossRate); err != nil {
		return err
	}
	if p.ImmunizationDelay < 0 {
		return fmt.Errorf("fault: immunization delay %d must be >= 0", p.ImmunizationDelay)
	}
	for _, w := range p.LimiterOutages {
		if w.End < w.Start {
			return fmt.Errorf("fault: outage window [%d,%d) inverted", w.Start, w.End)
		}
	}
	return nil
}

// active reports whether the profile injects anything at all.
func (p *Profile) active() bool {
	return p.FalseAlarmPerTick > 0 || p.MissRate > 0 ||
		p.ImmunizationLossRate > 0 || p.ImmunizationDelay > 0 ||
		len(p.LimiterOutages) > 0
}

// Injector is one run's instantiation of a Profile: it owns the seeded
// RNG the probabilistic faults draw from. Not safe for concurrent use;
// give every engine its own (Profile.NewInjector).
type Injector struct {
	p   Profile
	rng *Rand
}

// NewInjector builds the run-level injector for the profile, or nil
// when the profile is nil or injects nothing — callers can test
// `inj != nil` as the single "faults configured" gate.
func NewInjector(p *Profile) *Injector {
	if p == nil || !p.active() {
		return nil
	}
	return &Injector{p: *p, rng: NewRand(p.Seed)}
}

// FalseAlarm draws whether the detector fires spuriously this tick.
func (in *Injector) FalseAlarm() bool {
	if in.p.FalseAlarmPerTick <= 0 {
		return false
	}
	return in.rng.Float64() < in.p.FalseAlarmPerTick
}

// MissDetection draws whether a genuine threshold crossing goes
// unreported this tick.
func (in *Injector) MissDetection() bool {
	if in.p.MissRate <= 0 {
		return false
	}
	return in.rng.Float64() < in.p.MissRate
}

// LimiterDown reports whether the rate-limiting deployment is inside an
// outage window at tick t. Pure — no draw.
func (in *Injector) LimiterDown(t int) bool {
	for _, w := range in.p.LimiterOutages {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// DropImmunization draws whether one node's patch event is lost.
func (in *Injector) DropImmunization() bool {
	if in.p.ImmunizationLossRate <= 0 {
		return false
	}
	return in.rng.Float64() < in.p.ImmunizationLossRate
}

// ImmunizationDelay returns the configured dissemination lag in ticks.
func (in *Injector) ImmunizationDelay() int { return in.p.ImmunizationDelay }

// State exposes the injector's RNG state for checkpointing.
func (in *Injector) State() uint64 { return in.rng.State() }

// SetState restores a checkpointed RNG state.
func (in *Injector) SetState(s uint64) { in.rng.SetState(s) }
