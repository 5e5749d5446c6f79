package sim

import (
	"errors"
	"fmt"
	"strings"
)

// ErrInvariant is the sentinel every invariant-audit failure matches
// via errors.Is.
var ErrInvariant = errors.New("sim: engine invariant violated")

// audit is the one statement of the engine's invariants. It recomputes
// every quantity the hot path maintains incrementally — per-link
// counts, both active-set bitmaps, the infected and removed counters —
// from ground truth (the packet arena and the packed node states), and
// checks packet conservation, the population bounds, and that
// ever-infected never decreases from one audit to the next. The
// returned error matches ErrInvariant and names every violated
// invariant. O(links + nodes + queued packets) per call: RunContext
// runs it after every tick under Config.Check, and Restore once on the
// state it rebuilt.
func (e *Engine) audit() error {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// Links: every queued packet sits on the link its route takes from
	// that link's tail, each link's count is the arena entries on it,
	// and its bit is set exactly when the count is non-zero.
	onLink := make([]int32, len(e.queueLen))
	misrouted := 0
	for _, q := range e.arena {
		onLink[q.link]++
		if e.structural.HopLink(e.links.From(int(q.link)), int(q.pkt.dst)) != q.link {
			misrouted++
		}
	}
	if misrouted > 0 {
		fail("%d queued packets sit on a link off their route", misrouted)
	}
	badCount, first, badBit := 0, -1, 0
	for li, n := range e.queueLen {
		if n != onLink[li] {
			if first < 0 {
				first = li
			}
			badCount++
		}
		if bit := e.queueBits[li>>6]&(1<<(uint(li)&63)) != 0; bit != (n > 0) {
			badBit++
		}
	}
	if badCount > 0 {
		fail("%d link counts disagree with the arena (link %d counts %d, holds %d)",
			badCount, first, e.queueLen[first], onLink[first])
	}
	if badBit > 0 {
		fail("%d queue active-set bits disagree with the link counts", badBit)
	}

	// Nodes: the infected bit mirrors the state, and the counters equal
	// the number of nodes in the state they count.
	infected, removed, badNode := 0, 0, 0
	for u := 0; u < e.n; u++ {
		st := e.stateOf(u)
		switch st {
		case stateInfected:
			infected++
		case stateRemoved:
			removed++
		}
		if bit := e.infectedBits[u>>6]&(1<<(uint(u)&63)) != 0; bit != (st == stateInfected) {
			badNode++
		}
	}
	if badNode > 0 {
		fail("%d infected active-set bits disagree with the node states", badNode)
	}
	if e.infected != infected {
		fail("infected counter %d != %d nodes in the infected state", e.infected, infected)
	}
	if e.removed != removed {
		fail("removed counter %d != %d nodes in the removed state", e.removed, removed)
	}

	if want := e.delivCount + e.dropCount + uint64(len(e.arena)); e.genCount != want {
		fail("packet conservation: generated %d != delivered %d + dropped %d + queued %d",
			e.genCount, e.delivCount, e.dropCount, len(e.arena))
	}
	if e.ever < e.infected {
		fail("ever-infected %d < currently infected %d", e.ever, e.infected)
	}
	if e.ever > e.popSize {
		fail("ever-infected %d exceeds population %d", e.ever, e.popSize)
	}
	if e.infected+e.removed > e.popSize {
		fail("infected %d + removed %d exceeds population %d", e.infected, e.removed, e.popSize)
	}
	if e.ever < e.auditedEver {
		fail("ever-infected decreased: %d -> %d", e.auditedEver, e.ever)
	}
	e.auditedEver = e.ever

	if len(v) > 0 {
		return fmt.Errorf("%w at tick %d: %s", ErrInvariant, e.tick, strings.Join(v, "; "))
	}
	return nil
}
