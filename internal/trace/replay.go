package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

// Contact is one connection attempt initiated by a monitored internal
// host — the unit the simulation engine's trace-replay driver consumes.
// A contact competes for the host's rate-limiter credits whether or not
// its destination lies inside the simulated network; only internal
// destinations become in-network packets.
type Contact struct {
	// Host is the internal host index (HostIndex of the source address).
	Host int32
	// Dst is the destination address, internal or external.
	Dst ratelimit.IP
	// Worm marks the contact as worm scan traffic (see WormFlow); all
	// other contacts are benign background load.
	Worm bool
}

// WormFlow classifies a record as worm scan traffic: a TCP SYN at the
// DCOM RPC port 135 (Blaster's exploit vector, also Welchia's follow-up
// exploit) or any ICMP packet (Welchia's ping sweep). Everything else —
// web, mail, DNS, P2P — is benign background load. The heuristic
// mirrors how the paper's Section 7 analysis separates the two worms
// from normal traffic in the campus traces.
func WormFlow(r *Record) bool {
	if r.Proto == worm.ProtoTCP && r.DstPort == 135 && r.Flags&FlagSYN != 0 {
		return true
	}
	return r.Proto == worm.ProtoICMP
}

// Replayer buckets a millisecond-timestamped contact stream into engine
// ticks: tick t covers trace times [t·msPerTick, (t+1)·msPerTick). It
// is the streaming adapter between trace time and the simulator's
// discrete clock — the whole trace is never materialized; the look-ahead
// held between calls is bounded by the source (one record for file
// streams, one generator event horizon per live host process for
// synthetic streams), independent of trace length.
//
// Contacts must be called with successive ticks (0, 1, 2, ... — or
// starting at n after Skip(n)); the returned slice is reused by the
// next call and must not be retained. A Replayer serves one replay run;
// build a fresh one per run.
type Replayer struct {
	msPerTick int64
	nextTick  int
	buf       []Contact
	// fill appends the contacts with trace time in [lo, hi) to buf,
	// grouped by host ascending with each host's stream order preserved.
	fill func(lo, hi int64, buf []Contact) ([]Contact, error)
}

// Contacts returns the tick's contact batch, grouped by host ascending
// with each host's stream order preserved — the canonical order the
// engine's determinism contract fixes.
func (r *Replayer) Contacts(tick int) ([]Contact, error) {
	if tick != r.nextTick {
		return nil, fmt.Errorf("trace: replay tick %d out of order (stream is at tick %d)", tick, r.nextTick)
	}
	lo := int64(tick) * r.msPerTick
	buf, err := r.fill(lo, lo+r.msPerTick, r.buf[:0])
	r.buf = buf
	if err != nil {
		return nil, err
	}
	r.nextTick++
	return r.buf, nil
}

// Skip advances the stream past ticks [nextTick, n) and returns the
// number of contacts skipped. Checkpoint restore uses it to reposition
// a fresh Replayer at a snapshot's tick boundary; the returned count is
// cross-checked against the snapshotted stream position, so resuming
// against a different trace fails loudly instead of silently diverging.
func (r *Replayer) Skip(n int) (int64, error) {
	if n < r.nextTick {
		return 0, fmt.Errorf("trace: cannot skip back to tick %d (stream is at tick %d)", n, r.nextTick)
	}
	var total int64
	for r.nextTick < n {
		batch, err := r.Contacts(r.nextTick)
		if err != nil {
			return total, err
		}
		total += int64(len(batch))
	}
	return total, nil
}

// NewRecordReplayer streams a serialized trace (the WriteTo format) as
// tick-bucketed contacts: every record whose source is a monitored
// internal host becomes one Contact, classified by WormFlow; inbound
// and external records are skipped. Records must be in time order (as
// WriteTo emits them); at most one record of look-ahead is held between
// ticks, so arbitrarily long traces replay in constant memory.
func NewRecordReplayer(rd io.Reader, msPerTick int64) (*Replayer, error) {
	if msPerTick <= 0 {
		return nil, fmt.Errorf("trace: replay ms per tick %d must be positive", msPerTick)
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var (
		pending     Contact
		pendingTime int64
		havePending bool
		lastTime    int64
		line        int
	)
	// scan appends the contacts with trace time before hi, in time order.
	scan := func(hi int64, buf []Contact) ([]Contact, error) {
		if havePending {
			if pendingTime >= hi {
				return buf, nil
			}
			buf = append(buf, pending)
			havePending = false
		}
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			rec, err := parseRecord(text)
			if err != nil {
				return buf, fmt.Errorf("%w: line %d: %v", ErrBadRecord, line, err)
			}
			if rec.Time < lastTime {
				return buf, fmt.Errorf("%w: line %d: record at %d ms after %d ms (replay requires time order)",
					ErrBadRecord, line, rec.Time, lastTime)
			}
			lastTime = rec.Time
			h := HostIndex(rec.Src)
			if h < 0 {
				continue // inbound or external-to-external: not a monitored host's contact
			}
			c := Contact{Host: int32(h), Dst: rec.Dst, Worm: WormFlow(&rec)}
			if rec.Time >= hi {
				pending, pendingTime, havePending = c, rec.Time, true
				return buf, nil
			}
			buf = append(buf, c)
		}
		if err := sc.Err(); err != nil {
			return buf, fmt.Errorf("trace: replay read: %w", err)
		}
		return buf, nil
	}
	fill := func(_, hi int64, buf []Contact) ([]Contact, error) {
		buf, err := scan(hi, buf)
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].Host < buf[j].Host })
		return buf, err
	}
	return &Replayer{msPerTick: msPerTick, fill: fill}, nil
}

// benignInternalProb is the fraction of benign synthetic-replay
// contacts aimed at internal hosts instead of the outside world. The
// trace generator proper (Generate) omits internal-internal flows — an
// edge router never sees them — but the replay profile simulates the
// whole subnet, so a slice of intranet traffic exercises the in-network
// packet path (queues, drops) alongside the limiter seam.
const benignInternalProb = 0.10

// synthContact is a generated contact held for a later tick window.
type synthContact struct {
	tick int64 // the window it falls in: trace time / msPerTick
	dst  ratelimit.IP
	worm bool
}

// synthProcKind names one host's traffic process in the synthetic
// replay profile.
type synthProcKind uint8

const (
	procNormal synthProcKind = iota
	procServerIn
	procServerOut
	procP2P
	procWorm
)

// Per-process seed salts, so a host's processes draw independent
// streams (an infected host runs a background process and a worm
// process side by side).
const (
	replaySaltNormal    int64 = 0x243F6A8885A308D3
	replaySaltServerIn  int64 = 0x13198A2E03707344
	replaySaltServerOut int64 = 0x2B7E151628AED2A6
	replaySaltP2P       int64 = 0x452821E638D01377
	replaySaltWorm      int64 = 0x082EFA98EC4E6C89
)

// synthProc is one host's resumable traffic process: next is the time
// of its next top-level event (browsing session, inbound request, P2P
// contact, worm minute), and pend[head:] is its look-ahead — contacts
// already generated but beyond the current tick window. The look-ahead
// is bounded by one event's span (a session, a burst, one worm minute),
// the constant-memory window of the synthetic stream.
//
// The look-ahead is kept ordered by tick window, and in generation
// order within a window, so emitting a tick pops a prefix: the held
// contacts that reach the current window leave in exactly the order a
// filter over generation order would yield them, without rescanning the
// contacts that are still waiting. rng is the process's own source; it
// is dropped with the process when the process retires (see done).
type synthProc struct {
	host    int32
	kind    synthProcKind
	blaster bool
	rng     *rand.Rand
	next    int64
	pend    []synthContact
	head    int
}

// done reports whether the process can emit nothing more: its next
// event is past the trace horizon and its look-ahead is empty.
func (p *synthProc) done(duration int64) bool {
	return p.next >= duration && p.head == len(p.pend)
}

// synthStream is the synthetic replayer's state: the live processes in
// ascending host order (an infected host's background process before
// its worm process) and scratch buffers shared by all of them.
type synthStream struct {
	cfg       GenConfig
	msPerTick int64
	procs     []synthProc
	// fresh collects one advance call's contacts for later windows in
	// generation order; sorted and counts are orderByTick's scratch.
	fresh  []synthContact
	sorted []synthContact
	counts []int32
}

// NewSyntheticReplayer streams the generator's traffic profile
// (GenConfig's four host classes, the same calibrated behavioural
// constants as Generate) directly as tick-bucketed contacts, without
// ever materializing a trace: each host's processes are advanced lazily
// one tick window at a time. Two deliberate differences from Generate:
// worm scans include the internal sweep share (wormLocalPref) that an
// edge trace never records — that is what propagates infection inside
// the simulated subnet — and a benignInternalProb slice of benign
// contacts stays internal for the same reason.
//
// A process whose first event lies past cfg.Duration is never kept,
// and a process retires (leaves the process list, its source with it)
// once done; most normal hosts draw no event within a short horizon.
// Each process is seeded from one reused spare source — Seed(seed)
// yields the same stream as rand.New(rand.NewSource(seed)) — which
// passes to the process only when the process is kept.
func NewSyntheticReplayer(cfg GenConfig, msPerTick int64) (*Replayer, error) {
	s, err := newSynthStream(cfg, msPerTick)
	if err != nil {
		return nil, err
	}
	return &Replayer{msPerTick: msPerTick, fill: s.fill}, nil
}

// newSynthStream seeds every host's processes and keeps the ones with
// an event inside the horizon (see NewSyntheticReplayer).
func newSynthStream(cfg GenConfig, msPerTick int64) (*synthStream, error) {
	if msPerTick <= 0 {
		return nil, fmt.Errorf("trace: replay ms per tick %d must be positive", msPerTick)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &synthStream{cfg: cfg, msPerTick: msPerTick}
	var spare *rand.Rand
	start := func(h int, kind synthProcKind, salt int64) synthProc {
		seed := cfg.Seed ^ salt ^ (0x5E3779B97F4A7C15 * int64(h+1))
		if spare == nil {
			spare = rand.New(rand.NewSource(seed))
		} else {
			spare.Seed(seed)
		}
		return synthProc{host: int32(h), kind: kind, rng: spare}
	}
	keep := func(p synthProc) {
		if p.next < cfg.Duration {
			s.procs = append(s.procs, p)
			spare = nil // the process owns the source now
		}
	}
	for h := 0; h < cfg.NumHosts(); h++ {
		switch cfg.HostClass(h) {
		case ClassNormal:
			p := start(h, procNormal, replaySaltNormal)
			p.next = expDelay(p.rng, float64(Hour)/normalSessionsPerHour)
			keep(p)
		case ClassServer:
			p := start(h, procServerIn, replaySaltServerIn)
			p.next = expDelay(p.rng, float64(Minute)/serverInboundPerMinute)
			keep(p)
			q := start(h, procServerOut, replaySaltServerOut)
			q.next = expDelay(q.rng, float64(Hour)/serverOutboundPerHour)
			keep(q)
		case ClassP2P:
			p := start(h, procP2P, replaySaltP2P)
			p.next = expDelay(p.rng, float64(Minute)/p2pContactsPerMinute)
			keep(p)
		case ClassInfected:
			p := start(h, procNormal, replaySaltNormal)
			p.next = expDelay(p.rng, float64(Hour)/normalSessionsPerHour)
			keep(p)
			w := start(h, procWorm, replaySaltWorm)
			w.blaster = w.rng.Float64() < cfg.BlasterFraction
			w.next = cfg.WormOnset / Minute * Minute
			keep(w)
		}
	}
	return s, nil
}

// fill advances every live process through the window [lo, hi) in host
// order and retires the ones that are done.
func (s *synthStream) fill(lo, hi int64, buf []Contact) ([]Contact, error) {
	tick := lo / s.msPerTick
	live := 0
	for i := range s.procs {
		p := &s.procs[i]
		buf = s.advance(p, tick, hi, buf)
		if p.done(s.cfg.Duration) {
			continue
		}
		if live != i {
			s.procs[live] = *p
		}
		live++
	}
	clear(s.procs[live:]) // drop retired processes' sources
	s.procs = s.procs[:live]
	return buf, nil
}

// benignTarget draws a benign contact's destination: usually external,
// occasionally an internal host (see benignInternalProb).
func (p *synthProc) benignTarget(cfg *GenConfig) ratelimit.IP {
	if p.rng.Float64() < benignInternalProb {
		return HostIP(p.rng.Intn(cfg.NumHosts()))
	}
	return externalIP(p.rng)
}

// advance appends to buf the process's contacts for window tick, which
// ends at trace time hi: first the held look-ahead prefix that reached
// the window, then every top-level event with start time < hi in
// generation order. An event's contacts for later windows are collected
// in s.fresh and merged into the look-ahead by hold. Successive windows
// must be contiguous — Replayer guarantees that.
func (s *synthStream) advance(p *synthProc, tick, hi int64, buf []Contact) []Contact {
	for ; p.head < len(p.pend) && p.pend[p.head].tick <= tick; p.head++ {
		c := p.pend[p.head]
		buf = append(buf, Contact{Host: p.host, Dst: c.dst, Worm: c.worm})
	}
	cfg := &s.cfg
	push := func(t int64, dst ratelimit.IP, wormScan bool) {
		if t >= cfg.Duration {
			return
		}
		if t < hi {
			buf = append(buf, Contact{Host: p.host, Dst: dst, Worm: wormScan})
		} else {
			s.fresh = append(s.fresh, synthContact{tick: t / s.msPerTick, dst: dst, worm: wormScan})
		}
	}
	for p.next < hi && p.next < cfg.Duration {
		t := p.next
		switch p.kind {
		case procNormal:
			// One browsing session: a page-load burst, then stragglers
			// (the genNormal shape, one contact per destination).
			n := 1 + p.rng.Intn(2*normalSessionContacts-1)
			burst := 2 + p.rng.Intn(normalBurstMax-1)
			if burst > n {
				burst = n
			}
			st := t
			for k := 0; k < n && st < cfg.Duration; k++ {
				push(st, p.benignTarget(cfg), false)
				if k < burst-1 {
					st += int64(1 + p.rng.Intn(300))
				} else {
					st += expDelay(p.rng, float64(normalSessionMeanMS)/float64(n))
				}
			}
			p.next += expDelay(p.rng, float64(Hour)/normalSessionsPerHour)
		case procServerIn:
			// Response to an inbound request: outbound traffic to a host
			// that contacted us first, never throttle-worthy novelty but
			// still a contact the limiter sees.
			push(t, externalIP(p.rng), false)
			p.next += expDelay(p.rng, float64(Minute)/serverInboundPerMinute)
		case procServerOut:
			push(t, p.benignTarget(cfg), false)
			p.next += expDelay(p.rng, float64(Hour)/serverOutboundPerHour)
		case procP2P:
			n := 1
			if p.rng.Float64() < p2pBurstProb {
				n = 1 + p.rng.Intn(2*p2pBurstContacts)
			}
			st := t
			for k := 0; k < n && st < cfg.Duration; k++ {
				push(st, p.benignTarget(cfg), false)
				st += int64(1 + p.rng.Intn(400))
			}
			p.next += expDelay(p.rng, float64(Minute)/p2pContactsPerMinute)
		case procWorm:
			// One worm minute: a per-minute rate draw (peaks and lulls, as
			// in genWorm), scans spread uniformly over the minute. Unlike
			// the edge-trace generator, the local-preference share scans
			// internal hosts — the in-subnet sweep that spreads infection.
			var rate float64
			if p.blaster {
				rate = blasterMeanPerMinute * (0.5 + p.rng.Float64())
				if p.rng.Float64() < blasterPeakProb {
					rate = blasterPeakPerMinute
				}
			} else {
				rate = welchiaMeanPerMinute * (0.3 + 1.4*p.rng.Float64())
				if p.rng.Float64() < welchiaBurstProb {
					rate = welchiaPeakPerMinute
				}
			}
			n := int(rate)
			cursor := p.rng.Uint32()
			for k := 0; k < n; k++ {
				st := t + int64(p.rng.Intn(int(Minute)))
				cursor++
				tgt := ratelimit.IP(cursor)
				if p.rng.Float64() < wormLocalPref {
					tgt = HostIP(p.rng.Intn(cfg.NumHosts()))
				} else if Internal(tgt) || tgt == 0 {
					continue
				}
				push(st, tgt, true)
			}
			p.next += Minute
		}
	}
	if len(s.fresh) > 0 {
		s.hold(p)
	}
	return buf
}

// countingSpan bounds orderByTick's counting pass: contacts whose
// windows span more than countingSpan windows per contact are ordered
// by a stable sort instead, so the count table stays O(contacts).
const countingSpan = 8

// orderByTick returns fresh ordered by tick window, generation order
// kept within a window: one counting pass over the window offsets
// places the contacts into sorted, unless the windows span far more
// than there are contacts (a worm minute at millisecond ticks), where
// fresh is sorted stably in place. counts is scratch for the counting
// pass. The counting pass carries the common case: with the stable sort
// alone, the collateral-campus benchmark ran twice as slow (median
// 6.8 s against 3.4 s over 10 alternating runs on a 2-vCPU VM).
func orderByTick(fresh, sorted []synthContact, counts []int32) ([]synthContact, []int32) {
	lo, hi := fresh[0].tick, fresh[0].tick
	for _, c := range fresh[1:] {
		lo, hi = min(lo, c.tick), max(hi, c.tick)
	}
	span := hi - lo + 1
	if span > countingSpan*int64(len(fresh)) {
		slices.SortStableFunc(fresh, func(a, b synthContact) int { return cmp.Compare(a.tick, b.tick) })
		return fresh, counts
	}
	counts = slices.Grow(counts[:0], int(span+1))[:span+1]
	clear(counts)
	for _, c := range fresh {
		counts[c.tick-lo+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	sorted = sorted[:len(fresh)]
	for _, c := range fresh {
		sorted[counts[c.tick-lo]] = c
		counts[c.tick-lo]++
	}
	return sorted, counts
}

// hold merges s.fresh — contacts generated after everything already
// held — into p's tick-ordered look-ahead. Within a window the held
// contacts stay ahead of the fresh ones, so the look-ahead remains in
// generation order per window.
func (s *synthStream) hold(p *synthProc) {
	s.sorted = slices.Grow(s.sorted[:0], len(s.fresh))
	var fresh []synthContact
	fresh, s.counts = orderByTick(s.fresh, s.sorted, s.counts)
	s.fresh = s.fresh[:0]
	if p.head > 0 && 2*p.head >= len(p.pend) {
		// Compact once the popped prefix outweighs the live part, so the
		// slice stays within twice the look-ahead at amortized O(1) per
		// contact.
		p.pend, p.head = p.pend[:copy(p.pend, p.pend[p.head:])], 0
	}
	// Merge from the back in place: a held contact moves behind a fresh
	// one only when its window is strictly later.
	i := len(p.pend) - 1
	p.pend = append(p.pend, fresh...)
	for j, k := len(fresh)-1, len(p.pend)-1; j >= 0; k-- {
		if i >= p.head && p.pend[i].tick > fresh[j].tick {
			p.pend[k] = p.pend[i]
			i--
		} else {
			p.pend[k] = fresh[j]
			j--
		}
	}
}
