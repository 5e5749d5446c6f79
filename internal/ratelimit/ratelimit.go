// Package ratelimit implements the contact-rate limiting mechanisms the
// paper analyzes and measures: Williamson's virus throttle (a working
// set of recent destinations plus a delay queue) and its working set
// alone, plain unique-IP window limits, and the hybrid short+long
// window scheme the paper proposes as future work.
//
// All limiters are driven by an explicit tick clock (no wall time) so
// simulations and trace replays are deterministic.
package ratelimit

import (
	"errors"
	"fmt"
	"slices"
)

// IP is an IPv4 address in host byte order. The trace substrate uses
// anonymized addresses, so this is just an opaque 32-bit key.
type IP uint32

// ContactLimiter is the common decision surface: may a contact to dst be
// initiated at tick now? Implementations track their own history.
type ContactLimiter interface {
	// Allow reports whether a contact to dst at tick now passes the
	// limiter. A false result means the contact is blocked or delayed
	// this tick (the caller decides whether to retry later).
	Allow(now int64, dst IP) bool
}

// ErrBadConfig reports an invalid limiter configuration.
var ErrBadConfig = errors.New("ratelimit: invalid configuration")

// UniqueIPWindow allows at most Max *distinct* destination addresses per
// tumbling window of Window ticks. Contacts to an address already seen
// in the current window are always allowed — this is the "number of
// unique IP addresses contacted in a given period" limit of the paper's
// trace study (e.g. 16 per 5 seconds at the edge router, 4 per 5 seconds
// per host).
type UniqueIPWindow struct {
	max    int
	window int64

	winStart int64
	seen     map[IP]struct{}
}

// NewUniqueIPWindow builds the limiter; max >= 1 and window >= 1.
func NewUniqueIPWindow(max int, window int64) (*UniqueIPWindow, error) {
	if max < 1 || window < 1 {
		return nil, fmt.Errorf("%w: max=%d window=%d", ErrBadConfig, max, window)
	}
	return &UniqueIPWindow{
		max:    max,
		window: window,
		seen:   make(map[IP]struct{}, max),
	}, nil
}

// roll advances the tumbling window to contain now.
func (l *UniqueIPWindow) roll(now int64) {
	if now-l.winStart >= l.window {
		l.winStart = now - (now-l.winStart)%l.window
		clear(l.seen)
	}
}

// Allow implements ContactLimiter.
func (l *UniqueIPWindow) Allow(now int64, dst IP) bool {
	l.roll(now)
	if _, ok := l.seen[dst]; ok {
		return true
	}
	if len(l.seen) >= l.max {
		return false
	}
	l.seen[dst] = struct{}{}
	return true
}

// WouldAllow reports whether Allow would admit dst at tick now, without
// recording the contact. Used by composite limiters so a denial in one
// component does not consume budget in another.
func (l *UniqueIPWindow) WouldAllow(now int64, dst IP) bool {
	l.roll(now)
	if _, ok := l.seen[dst]; ok {
		return true
	}
	return len(l.seen) < l.max
}

// Distinct returns the number of distinct destinations contacted in the
// current window.
func (l *UniqueIPWindow) Distinct(now int64) int {
	l.roll(now)
	return len(l.seen)
}

var _ ContactLimiter = (*UniqueIPWindow)(nil)

// SlidingUniqueIPWindow allows at most Max distinct destinations per
// *sliding* window of Window ticks: a contact is admitted if fewer than
// Max distinct other destinations were admitted in the preceding Window
// ticks. Unlike the tumbling UniqueIPWindow it has no reset boundary a
// worm could straddle for a double burst, at the cost of remembering
// recent admissions.
type SlidingUniqueIPWindow struct {
	max    int
	window int64

	// admissions holds (tick, dst) of admitted contacts, oldest first.
	admissions []slidingEntry
	// lastSeen maps admitted destinations to their latest admission
	// tick, so repeats refresh instead of recount.
	lastSeen map[IP]int64
}

type slidingEntry struct {
	tick int64
	dst  IP
}

// NewSlidingUniqueIPWindow builds the limiter; max >= 1, window >= 1.
func NewSlidingUniqueIPWindow(max int, window int64) (*SlidingUniqueIPWindow, error) {
	if max < 1 || window < 1 {
		return nil, fmt.Errorf("%w: max=%d window=%d", ErrBadConfig, max, window)
	}
	return &SlidingUniqueIPWindow{
		max:      max,
		window:   window,
		lastSeen: make(map[IP]int64, max),
	}, nil
}

// expire drops admissions older than the window.
func (l *SlidingUniqueIPWindow) expire(now int64) {
	cut := 0
	for cut < len(l.admissions) && now-l.admissions[cut].tick >= l.window {
		e := l.admissions[cut]
		if l.lastSeen[e.dst] == e.tick {
			delete(l.lastSeen, e.dst)
		}
		cut++
	}
	if cut > 0 {
		l.admissions = append(l.admissions[:0], l.admissions[cut:]...)
	}
}

// Allow implements ContactLimiter.
func (l *SlidingUniqueIPWindow) Allow(now int64, dst IP) bool {
	l.expire(now)
	if _, ok := l.lastSeen[dst]; ok {
		// Refresh recency of an already-admitted destination.
		l.lastSeen[dst] = now
		l.admissions = append(l.admissions, slidingEntry{tick: now, dst: dst})
		return true
	}
	if len(l.lastSeen) >= l.max {
		return false
	}
	l.lastSeen[dst] = now
	l.admissions = append(l.admissions, slidingEntry{tick: now, dst: dst})
	return true
}

// Distinct returns the number of distinct destinations admitted within
// the window ending at now.
func (l *SlidingUniqueIPWindow) Distinct(now int64) int {
	l.expire(now)
	return len(l.lastSeen)
}

var _ ContactLimiter = (*SlidingUniqueIPWindow)(nil)

// WorkingSet is the admission half of Williamson's throttle: a
// working set of the n most recent distinct destinations. A contact to
// a destination in the set passes and refreshes its recency; while the
// set has room a new destination joins it and passes; anything else is
// denied, and nothing remembers it. This is the host throttle a
// simulation engine runs: the engine never releases a denied contact
// later, so the delay queue of WilliamsonThrottle would only grow.
type WorkingSet struct {
	size int
	// recent is the working set, most recent first, at most size
	// distinct addresses. The set is a handful of entries (Williamson's
	// default is 5), so a linear scan beats any index.
	recent []IP
}

// NewWorkingSet builds a working set of the given size (>= 1).
func NewWorkingSet(size int) (*WorkingSet, error) {
	if size < 1 {
		return nil, fmt.Errorf("%w: workingSet=%d", ErrBadConfig, size)
	}
	return &WorkingSet{size: size, recent: make([]IP, 0, size)}, nil
}

// touch makes dst the most recent working-set entry. i is dst's current
// position, or -1 when dst is new: a new entry grows the set while it
// has room and otherwise evicts the least recently used one.
func (w *WorkingSet) touch(i int, dst IP) {
	if i < 0 {
		if len(w.recent) < w.size {
			w.recent = append(w.recent, 0)
		}
		i = len(w.recent) - 1
	}
	copy(w.recent[1:i+1], w.recent[:i])
	w.recent[0] = dst
}

// Allow implements ContactLimiter: contacts in the working set pass and
// refresh recency, and new destinations pass while the set has room.
func (w *WorkingSet) Allow(now int64, dst IP) bool {
	if i := slices.Index(w.recent, dst); i >= 0 {
		w.touch(i, dst)
		return true
	}
	if len(w.recent) < w.size {
		w.touch(-1, dst)
		return true
	}
	return false
}

var _ ContactLimiter = (*WorkingSet)(nil)

// WilliamsonThrottle is the virus throttle of HPL-2002-172: a
// WorkingSet plus a delay queue. A contact the working set denies joins
// the queue, drained at a fixed rate by Tick (one request per period
// ticks), with each dequeue evicting the least-recently-used
// working-set entry. Legitimate traffic (high locality) rarely queues;
// scanning worms (no locality) are clamped to the drain rate, and the
// queue's growth is Williamson's worm alarm.
type WilliamsonThrottle struct {
	WorkingSet
	period    int64
	queue     []IP
	lastDrain int64
}

// NewWilliamsonThrottle builds a throttle with the given working-set
// size (Williamson's default: 5) and drain period in ticks (default:
// one per second).
func NewWilliamsonThrottle(workingSet int, period int64) (*WilliamsonThrottle, error) {
	if workingSet < 1 || period < 1 {
		return nil, fmt.Errorf("%w: workingSet=%d period=%d", ErrBadConfig, workingSet, period)
	}
	return &WilliamsonThrottle{
		WorkingSet: WorkingSet{size: workingSet, recent: make([]IP, 0, workingSet)},
		period:     period,
		lastDrain:  -1,
	}, nil
}

// Allow implements ContactLimiter: contacts the working set admits
// pass; anything else is queued and blocked this tick. Call Tick once
// per tick to drain the queue.
func (t *WilliamsonThrottle) Allow(now int64, dst IP) bool {
	if t.WorkingSet.Allow(now, dst) {
		return true
	}
	t.queue = append(t.queue, dst)
	return false
}

// Tick drains the delay queue: at most one queued destination is
// admitted per drain period, evicting the least recently used
// working-set entry (a destination queued twice is already in the set
// by its second release, and is only refreshed). Returns the
// destination released this tick and true, or false if none.
func (t *WilliamsonThrottle) Tick(now int64) (IP, bool) {
	if len(t.queue) == 0 {
		return 0, false
	}
	if t.lastDrain >= 0 && now-t.lastDrain < t.period {
		return 0, false
	}
	t.lastDrain = now
	dst := t.queue[0]
	t.queue = t.queue[1:]
	t.touch(slices.Index(t.recent, dst), dst)
	return dst, true
}

// QueueLen returns the number of delayed requests — Williamson's worm
// detection signal (a persistently growing queue indicates scanning).
func (t *WilliamsonThrottle) QueueLen() int { return len(t.queue) }

var _ ContactLimiter = (*WilliamsonThrottle)(nil)

// HybridWindow combines a short window (prevents long post-burst stalls)
// with a long window (enforces a tight long-term rate), the scheme the
// paper floats in Section 7: "one short window to prevent long delays
// and one longer window to provide better rate-limiting". A contact
// passes only if both windows pass.
type HybridWindow struct {
	short *UniqueIPWindow
	long  *UniqueIPWindow
}

// NewHybridWindow builds the combined limiter.
func NewHybridWindow(shortMax int, shortWindow int64, longMax int, longWindow int64) (*HybridWindow, error) {
	if longWindow <= shortWindow {
		return nil, fmt.Errorf("%w: long window %d must exceed short window %d",
			ErrBadConfig, longWindow, shortWindow)
	}
	s, err := NewUniqueIPWindow(shortMax, shortWindow)
	if err != nil {
		return nil, err
	}
	l, err := NewUniqueIPWindow(longMax, longWindow)
	if err != nil {
		return nil, err
	}
	return &HybridWindow{short: s, long: l}, nil
}

// Allow implements ContactLimiter. Both windows must admit the contact;
// a contact denied by either window consumes budget in neither (the
// contact never happens, so it should not count as seen).
func (h *HybridWindow) Allow(now int64, dst IP) bool {
	if !h.short.WouldAllow(now, dst) || !h.long.WouldAllow(now, dst) {
		return false
	}
	return h.short.Allow(now, dst) && h.long.Allow(now, dst)
}

var _ ContactLimiter = (*HybridWindow)(nil)
