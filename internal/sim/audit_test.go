package sim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/routing"
)

// corruptAt is the tick at whose end the audit tests corrupt a live
// engine: by then the multiRunConfig worm has infected nodes and
// packets queued on rate-limited links.
const corruptAt = 10

// tickHook is a collector that hands each tick number to a function.
// The engine calls it at the end of every tick, right before the
// audit.
type tickHook func(tick int)

func (h tickHook) Tick(m obs.TickMetrics) { h(m.Tick) }
func (tickHook) Event(obs.Event)          {}

// runCorrupted runs cfg under the per-tick audit and applies corrupt
// to the engine at the end of tick corruptAt, after the tick's work
// and before its audit. It returns the run's result and error.
func runCorrupted(t *testing.T, cfg Config, corrupt func(*testing.T, *Engine)) (*Result, error) {
	t.Helper()
	cfg.Check = true
	var eng *Engine
	cfg.Collector = tickHook(func(tick int) {
		if tick == corruptAt {
			corrupt(t, eng)
		}
	})
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.RunContext(context.Background())
}

// queuedLinks returns the links holding packets, in ascending order.
func queuedLinks(e *Engine) []int {
	var ls []int
	for li, n := range e.queueLen {
		if n > 0 {
			ls = append(ls, li)
		}
	}
	return ls
}

// busyLink returns a link holding at least n packets.
func busyLink(t *testing.T, e *Engine, n int32) int {
	t.Helper()
	for _, li := range queuedLinks(e) {
		if e.queueLen[li] >= n {
			return li
		}
	}
	t.Fatalf("no link holds %d packets at tick %d; the corruption is vacuous", n, e.tick)
	return -1
}

// siblingLink returns another link leaving li's tail node, or -1 when
// li is its tail's only link.
func siblingLink(links *routing.Links, li int) int {
	u := links.From(li)
	for k := links.OutStart(u); k < links.OutStart(u)+len(links.Outgoing(u)); k++ {
		if k != li {
			return k
		}
	}
	return -1
}

// emptyLink returns a link holding no packets.
func emptyLink(t *testing.T, e *Engine) int {
	t.Helper()
	for li, n := range e.queueLen {
		if n == 0 {
			return li
		}
	}
	t.Fatal("every link holds packets")
	return -1
}

// nodeIn returns a node in state st.
func nodeIn(t *testing.T, e *Engine, st uint8) int {
	t.Helper()
	for u := 0; u < e.n; u++ {
		if e.stateOf(u) == st {
			return u
		}
	}
	t.Fatalf("no node in state %d at tick %d", st, e.tick)
	return -1
}

// dropArenaEntry removes the last arena entry queued on link li and
// returns it.
func dropArenaEntry(e *Engine, li int) queued {
	for i := len(e.arena) - 1; ; i-- {
		if int(e.arena[i].link) == li {
			q := e.arena[i]
			e.arena = append(e.arena[:i], e.arena[i+1:]...)
			return q
		}
	}
}

// TestAuditCatchesCorruption corrupts one invariant of a live engine
// mid-run and checks the per-tick audit stops the run with an error
// matching ErrInvariant that names the violated invariant. Every case
// completes (or panics) with the audit switched off.
func TestAuditCatchesCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(*testing.T, *Engine)
		want    string // substring of the violation message
	}{
		{"backlog counter drift", func(t *testing.T, e *Engine) {
			// Three packets queued on an idle link that were never
			// generated: counts and bits agree, the flow does not.
			li := emptyLink(t, e)
			for range 3 {
				e.arena = append(e.arena, queued{link: int32(li), pkt: packet{dst: int32(e.links.To(li))}})
			}
			e.queueLen[li] += 3
			e.queueBits[li>>6] |= 1 << (uint(li) & 63)
		}, "packet conservation"},
		{"link count drift", func(t *testing.T, e *Engine) {
			// A link counts a packet the arena does not hold.
			e.queueLen[busyLink(t, e, 1)]++
		}, "link counts disagree"},
		{"queue lost a packet", func(t *testing.T, e *Engine) {
			// The arena loses an entry its link still counts.
			dropArenaEntry(e, busyLink(t, e, 1))
		}, "link counts disagree"},
		{"count on the wrong link", func(t *testing.T, e *Engine) {
			// One packet counted on another busy link: every total,
			// every bit and the flow still agree.
			from := busyLink(t, e, 2)
			to := -1
			for _, li := range queuedLinks(e) {
				if li != from {
					to = li
					break
				}
			}
			if to < 0 {
				t.Fatal("only one link holds packets; the corruption is vacuous")
			}
			e.queueLen[from]--
			e.queueLen[to]++
		}, "link counts disagree"},
		{"packet off its route", func(t *testing.T, e *Engine) {
			// A queued packet moves, count and all, to a sibling link
			// of the same router, which does not lead to its
			// destination.
			for _, from := range queuedLinks(e) {
				to := siblingLink(e.links, from)
				if e.queueLen[from] < 2 || to < 0 {
					continue
				}
				q := dropArenaEntry(e, from)
				e.queueLen[from]--
				q.link = int32(to)
				e.arena = append(e.arena, q)
				e.queueLen[to]++
				e.queueBits[to>>6] |= 1 << (uint(to) & 63)
				return
			}
			t.Fatal("no router with two links queues two packets; the corruption is vacuous")
		}, "off their route"},
		{"negative link count", func(t *testing.T, e *Engine) {
			e.queueLen[emptyLink(t, e)] = -1
		}, "link counts disagree"},
		{"stale queue bit", func(t *testing.T, e *Engine) {
			li := emptyLink(t, e)
			e.queueBits[li>>6] |= 1 << (uint(li) & 63)
		}, "queue active-set bits"},
		{"queue missing its bit", func(t *testing.T, e *Engine) {
			li := busyLink(t, e, 1)
			e.queueBits[li>>6] &^= 1 << (uint(li) & 63)
		}, "queue active-set bits"},
		{"infected counter drift", func(t *testing.T, e *Engine) { e.infected++ }, "infected counter"},
		{"missing infected bit", func(t *testing.T, e *Engine) {
			// A genuinely infected node drops out of the active set.
			u := nodeIn(t, e, stateInfected)
			e.infectedBits[u>>6] &^= 1 << (uint(u) & 63)
		}, "infected active-set bits"},
		{"infected node missing its bit", func(t *testing.T, e *Engine) {
			// An infected node's bit moves to a susceptible node: the
			// active set keeps the infected counter's popcount.
			u := nodeIn(t, e, stateInfected)
			v := nodeIn(t, e, stateSusceptible)
			e.infectedBits[u>>6] &^= 1 << (uint(u) & 63)
			e.infectedBits[v>>6] |= 1 << (uint(v) & 63)
		}, "infected active-set bits"},
		{"infected bitset drift", func(t *testing.T, e *Engine) {
			// A susceptible node joins the active set.
			u := nodeIn(t, e, stateSusceptible)
			e.infectedBits[u>>6] |= 1 << (uint(u) & 63)
		}, "infected active-set bits"},
		{"infected state drift", func(t *testing.T, e *Engine) {
			// A susceptible node turns infected behind the counter's and
			// the active set's back.
			e.setState(nodeIn(t, e, stateSusceptible), stateInfected)
		}, "nodes in the infected state"},
		{"removed counter drift", func(t *testing.T, e *Engine) { e.removed++ }, "removed counter"},
		{"phantom drop", func(t *testing.T, e *Engine) { e.dropCount++ }, "packet conservation"},
		{"phantom delivery", func(t *testing.T, e *Engine) { e.delivCount++ }, "packet conservation"},
		{"lost generation", func(t *testing.T, e *Engine) { e.genCount += 5 }, "packet conservation"},
		{"uncounted drop", func(t *testing.T, e *Engine) {
			// A packet leaves its queue without a drop being counted.
			li := busyLink(t, e, 2)
			dropArenaEntry(e, li)
			e.queueLen[li]--
		}, "packet conservation"},
		{"ever below infected", func(t *testing.T, e *Engine) { e.ever = e.infected - 1 }, "< currently infected"},
		{"ever-infected decreasing", func(t *testing.T, e *Engine) {
			// Below the count at the end of the previous tick.
			e.ever = e.prevEver - 1
		}, "ever-infected decreased"},
		{"ever exceeds population", func(t *testing.T, e *Engine) { e.ever = e.popSize + 1 }, "exceeds population"},
		{"infected+removed exceed population", func(t *testing.T, e *Engine) {
			e.removed = e.popSize - e.infected + 1
		}, "exceeds population"},
	}
	for _, tt := range corruptions {
		t.Run(tt.name, func(t *testing.T) {
			cfg := multiRunConfig(t)
			res, err := runCorrupted(t, cfg, tt.corrupt)
			if err == nil {
				t.Fatal("corrupted engine completed its run under Check")
			}
			if !errors.Is(err, ErrInvariant) {
				t.Errorf("error does not match ErrInvariant: %v", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not name %q", err, tt.want)
			}
			if len(res.Infected) != corruptAt+1 {
				t.Errorf("run stopped after %d ticks, want %d (the first audit after the corruption)",
					len(res.Infected), corruptAt+1)
			}
		})
	}
}

// TestAuditNamesEveryViolation: one audit reports every invariant a
// corruption breaks, not just the first.
func TestAuditNamesEveryViolation(t *testing.T) {
	_, err := runCorrupted(t, multiRunConfig(t), func(t *testing.T, e *Engine) {
		e.removed += 2
		e.genCount += 5
	})
	if err == nil {
		t.Fatal("corrupted engine completed its run under Check")
	}
	for _, want := range []string{"removed counter", "packet conservation"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestRunPanicsOnAuditFailure: Run has no error channel, so a violated
// invariant must not be silently dropped.
func TestRunPanicsOnAuditFailure(t *testing.T) {
	cfg := multiRunConfig(t)
	cfg.Check = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.dropCount += 7
	defer func() {
		if recover() == nil {
			t.Error("Run did not panic on a corrupted engine under Check")
		}
	}()
	eng.Run()
}

// reseal deep-copies snap through JSON, applies mutate to the copy,
// and pushes it through the checkpoint file encoding with a fresh
// checksum, so only Restore's own checks stand between the result and
// a resumed run.
func reseal(t *testing.T, snap *Snapshot, mutate func(*Snapshot)) *Snapshot {
	t.Helper()
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	file, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(file)
	if err != nil {
		t.Fatalf("re-sealed checkpoint does not decode: %v", err)
	}
	return decoded
}

// TestRestoreAcceptsConsistentCheckpoint: every checkpoint a run
// writes is self-consistent, so the audit Restore runs on the engine
// it rebuilt accepts each one.
func TestRestoreAcceptsConsistentCheckpoint(t *testing.T) {
	cfg := multiRunConfig(t)
	_, snaps := runWithCheckpoints(t, cfg)
	for _, snap := range snaps {
		if _, err := Restore(cfg, reseal(t, snap, func(*Snapshot) {})); err != nil {
			t.Fatalf("checkpoint before tick %d rejected: %v", snap.NextTick, err)
		}
	}
}

// TestRestoreRejectsInconsistentCheckpoint: a checkpoint that passes
// every decode check and carries a valid checksum, but whose counters
// contradict its own state, must not resume into a silently diverging
// run. Restore audits what it rebuilt.
func TestRestoreRejectsInconsistentCheckpoint(t *testing.T) {
	cfg := multiRunConfig(t)
	_, snaps := runWithCheckpoints(t, cfg)
	// The first checkpoint queueing two packets on a link that has a
	// sibling at its tail router.
	links := BuildNet(cfg.Graph).links
	var snap *Snapshot
	qi := -1
	for _, s := range snaps {
		for i, q := range s.Queues {
			if len(q.Pkts) >= 8 && siblingLink(links, int(q.Link)) >= 0 {
				snap, qi = s, i
				break
			}
		}
		if snap != nil {
			break
		}
	}
	if snap == nil {
		t.Fatal("no checkpoint queues two packets on a router's link")
	}
	if _, err := Restore(cfg, snap); err != nil {
		t.Fatalf("untouched checkpoint rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Snapshot){
		"packet leak":            func(s *Snapshot) { s.GenCount++ },
		"infected counter drift": func(s *Snapshot) { s.Infected++ },
		"backlog counter drift": func(s *Snapshot) {
			// Three more copies of a queued packet that were never
			// generated: every route and link count still agrees.
			q := &s.Queues[qi]
			pkt := q.Pkts[len(q.Pkts)-4:]
			for range 3 {
				q.Pkts = append(q.Pkts, pkt...)
			}
		},
		"packet moved to a sibling link": func(s *Snapshot) {
			// One packet moves to another link of the same router:
			// every count and total still agrees.
			q := &s.Queues[qi]
			pkt := q.Pkts[len(q.Pkts)-4:]
			q.Pkts = q.Pkts[:len(q.Pkts)-4]
			to := int32(siblingLink(links, int(q.Link)))
			for i := range s.Queues {
				if s.Queues[i].Link == to {
					s.Queues[i].Pkts = append(s.Queues[i].Pkts, pkt...)
					return
				}
			}
			s.Queues = append(s.Queues, queueSnap{Link: to, Pkts: pkt})
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Restore(cfg, reseal(t, snap, mutate))
			if !errors.Is(err, ErrSnapshot) || !errors.Is(err, ErrInvariant) {
				t.Fatalf("Restore error = %v, want ErrSnapshot and ErrInvariant", err)
			}
		})
	}
}
