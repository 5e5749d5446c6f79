package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// auditSnapshot pairs every O(1) counter the hot path maintains with
// the same quantity recomputed from ground truth — full scans over the
// per-link counts, the packet arena, the active-set bitmaps, and the
// node states — so obs.Auditor can validate them by pure value
// comparison. The backlog (the arena's length) is checked against the
// summed per-link counts, and the queue bitset against the links the
// arena's entries actually sit on. O(links + nodes) per call; only run
// under Config.Check.
func (e *Engine) auditSnapshot() obs.Snapshot {
	queued := 0
	for _, n := range e.queueLen {
		queued += int(n)
	}
	onLink := make([]bool, len(e.queueLen))
	for _, q := range e.arena {
		onLink[q.link] = true
	}
	nonEmpty, flagged := 0, 0
	for li, on := range onLink {
		if !on {
			continue
		}
		nonEmpty++
		if e.queueBits[li>>6]&(1<<(uint(li)&63)) != 0 {
			flagged++
		}
	}
	bitsSet := 0
	for _, w := range e.queueBits {
		bitsSet += bits.OnesCount64(w)
	}
	infPop := 0
	for _, w := range e.infectedBits {
		infPop += bits.OnesCount64(w)
	}
	infStates, infFlagged := 0, 0
	for u := 0; u < e.n; u++ {
		if e.stateOf(u) != stateInfected {
			continue
		}
		infStates++
		if e.infectedBits[u>>6]&(1<<(uint(u)&63)) != 0 {
			infFlagged++
		}
	}
	return obs.Snapshot{
		Tick:          e.tick,
		Backlog:       len(e.arena),
		QueuedPackets: queued,

		QueueBitsSet:          bitsSet,
		NonEmptyQueues:        nonEmpty,
		NonEmptyQueuesFlagged: flagged,

		Infected:         e.infected,
		InfectedPopcount: infPop,
		InfectedStates:   infStates,
		InfectedFlagged:  infFlagged,

		EverInfected: e.ever,
		Removed:      e.removed,
		Population:   e.popSize,

		Generated: e.genCount,
		Delivered: e.delivCount,
		Dropped:   e.dropCount,
	}
}

// audit cross-checks the engine's end-of-tick state against ground
// truth. The returned error wraps the obs.InvariantError, so it still
// matches errors.Is(err, obs.ErrInvariant).
func (e *Engine) audit() error {
	snap := e.auditSnapshot()
	if err := e.auditor.Check(&snap); err != nil {
		return fmt.Errorf("sim: invariant audit failed (engine state is corrupt): %w", err)
	}
	return nil
}
