package sim

import (
	"fmt"

	"repro/internal/ratelimit"
	"repro/internal/trace"
)

// Workload is the scan-source seam of the trace-replay driver: a
// tick-bucketed stream of connection attempts by simulated hosts. The
// engine's default β-draw generate phase is the implicit synthetic
// source; a Config with a Replay section swaps it for a Workload —
// typically a trace.Replayer over a generated profile or an imported
// trace file. Contract (see trace.Replayer): Contacts is called with
// successive ticks, the returned slice is only valid until the next
// call, and Skip repositions a fresh stream for checkpoint restore,
// returning the contact count skipped so the restore can verify the
// stream is the one the snapshot was taken over.
type Workload interface {
	Contacts(tick int) ([]trace.Contact, error)
	Skip(n int) (int64, error)
}

// ReplayConfig drives the engine's generate phase from a trace-replay
// workload instead of β draws: worm scans and benign background flows
// come from the workload tick by tick, competing for the same host
// rate-limiter credits, while routing, queueing, delivery, infection,
// and immunization run unchanged. Replay consumes no engine RNG — the
// workload carries its own determinism — so a replay run is reproducible
// from (Config, workload) alone.
type ReplayConfig struct {
	// NewWorkload builds the contact stream for one run. It is a factory
	// because every engine build needs a fresh stream positioned at tick
	// 0 (MultiRun replicas, retries, checkpoint restores); it must yield
	// the identical stream on every call.
	NewWorkload func() (Workload, error)
	// Hosts maps trace host index -> node id (-1 = unmapped; contacts of
	// unmapped hosts are ignored). Nil means identity: trace host i is
	// node i. Scenario lowering maps trace hosts onto the topology's
	// RoleHost nodes in ascending order.
	Hosts []int32
	// WormHosts lists the trace host indices seeded infected before tick
	// 0 (the trace's infected class). When non-empty it replaces the
	// random InitialInfected placement — Config.InitialInfected must then
	// be 0 — and draws no RNG, keeping seeding aligned with the trace's
	// notion of who scans.
	WormHosts []int
}

// validate checks the replay section against the graph size.
func (rc *ReplayConfig) validate(n int) error {
	if rc.NewWorkload == nil {
		return fmt.Errorf("sim: replay config requires a workload factory")
	}
	for i, u := range rc.Hosts {
		if u < -1 || int(u) >= n {
			return fmt.Errorf("sim: replay host %d maps to node %d out of [-1,%d)", i, u, n)
		}
	}
	for _, h := range rc.WormHosts {
		if h < 0 {
			return fmt.Errorf("sim: replay worm host %d negative", h)
		}
		if rc.Hosts != nil && h >= len(rc.Hosts) {
			return fmt.Errorf("sim: replay worm host %d outside the %d-entry host map", h, len(rc.Hosts))
		}
		if rc.Hosts == nil && h >= n {
			return fmt.Errorf("sim: replay worm host %d outside the %d-node identity map", h, n)
		}
	}
	return nil
}

// buildReplay materializes the replay state of a fresh engine: the
// run's workload stream (positioned at tick 0) and the host map.
func (e *Engine) buildReplay() error {
	rc := e.cfg.Replay
	w, err := rc.NewWorkload()
	if err != nil {
		return fmt.Errorf("sim: build replay workload: %w", err)
	}
	e.workload = w
	if rc.Hosts != nil {
		e.replayHosts = rc.Hosts
	} else {
		e.replayHosts = make([]int32, e.n)
		for i := range e.replayHosts {
			e.replayHosts[i] = int32(i)
		}
	}
	return nil
}

// seedReplayInfections infects the mapped WormHosts (in list order,
// consuming no RNG) in place of random seed placement.
func (e *Engine) seedReplayInfections(hosts []int) error {
	for _, h := range hosts {
		u := int(e.replayHosts[h])
		if u < 0 {
			return fmt.Errorf("sim: replay worm host %d is not mapped to a node", h)
		}
		if e.stateOf(u) == stateExcluded {
			return fmt.Errorf("sim: replay worm host %d maps to excluded node %d", h, u)
		}
		e.infect(u, -1)
	}
	if e.infected == 0 {
		return fmt.Errorf("sim: replay workload seeded no infections")
	}
	return nil
}

// generateReplay is the generate phase of a replay run: it consumes the
// tick's contact batch and turns each contact into the same monitor-
// point accounting, limiter check, and packet emission the β path
// performs — with benign contacts counted separately (the collateral-
// damage signal) and emitted as kindBenign packets when their
// destination is inside the simulated network.
//
// Contacts are applied in the order the workload yields them
// (host-ascending within a tick). State gating ties the trace to the simulation:
// a worm contact from a node that is no longer infected (patched by
// the immunization process) is suppressed — the trace recorded the
// scan, but the simulated defense stopped the scanner.
func (e *Engine) generateReplay() {
	batch, err := e.workload.Contacts(e.tick)
	if err != nil {
		e.workloadErr = fmt.Errorf("sim: replay workload at tick %d: %w", e.tick, err)
		return
	}
	e.replayRecords += int64(len(batch))
	for i := range batch {
		c := &batch[i]
		if c.Host < 0 || int(c.Host) >= len(e.replayHosts) {
			continue // host outside the mapped range: not simulated
		}
		u := int(e.replayHosts[c.Host])
		if u < 0 {
			continue
		}
		st := e.stateOf(u)
		if c.Worm {
			if st != stateInfected {
				continue // patched or never seeded: the scanner is silent
			}
			e.scansThisTick++
		} else {
			if st == stateExcluded {
				continue
			}
			e.benignThisTick++
		}
		// Same monitor-point-then-limiter order as generate: the
		// attempt is counted pre-throttle, then the host limiter gates
		// it. Replay hands the limiter the contact's real destination
		// address, so distinct external targets fill a Williamson
		// working set exactly as they would on the wire.
		var limiter ratelimit.ContactLimiter
		if e.limiterSlot != nil {
			if ls := e.limiterSlot[u]; ls >= 0 {
				limiter = e.limiterTab[ls]
			}
		}
		if limiter != nil && !e.limitsDown && !limiter.Allow(int64(e.tick), c.Dst) {
			if c.Worm {
				e.throttledThisTick++
			} else {
				e.benignThrottledThisTick++
			}
			continue
		}
		// Only contacts at simulated hosts become in-network packets;
		// externally-bound traffic has spent its limiter credit and
		// leaves the edge.
		hi := trace.HostIndex(c.Dst)
		if hi < 0 || hi >= len(e.replayHosts) {
			continue
		}
		target := int(e.replayHosts[hi])
		if target < 0 || target == u {
			continue
		}
		kind := kindBenign
		if c.Worm {
			kind = kindExploit
		}
		e.genCount++
		e.routePacket(int32(u), packet{
			src: int32(u), dst: int32(target), kind: kind, birth: int32(e.tick),
		})
	}
}
