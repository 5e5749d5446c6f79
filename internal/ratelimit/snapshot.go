package ratelimit

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// StateMarshaler is implemented by every limiter in this package so an
// engine checkpoint can capture and restore limiter history. Map-shaped
// internals are serialized in sorted order, so the same state always
// produces the same bytes (checkpoints of identical runs are
// byte-comparable).
type StateMarshaler interface {
	// MarshalState serializes the limiter's mutable state. The static
	// configuration (window sizes, budgets) is not included: restore
	// targets a limiter freshly built with the same parameters.
	MarshalState() ([]byte, error)
	// UnmarshalState restores state produced by MarshalState.
	UnmarshalState(data []byte) error
}

func sortIPs(ips []IP) {
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
}

type uniqueIPState struct {
	WinStart int64 `json:"win_start"`
	Seen     []IP  `json:"seen"`
}

// MarshalState implements StateMarshaler.
func (l *UniqueIPWindow) MarshalState() ([]byte, error) {
	st := uniqueIPState{WinStart: l.winStart, Seen: make([]IP, 0, len(l.seen))}
	for ip := range l.seen {
		st.Seen = append(st.Seen, ip)
	}
	sortIPs(st.Seen)
	return json.Marshal(st)
}

// UnmarshalState implements StateMarshaler.
func (l *UniqueIPWindow) UnmarshalState(data []byte) error {
	var st uniqueIPState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	l.winStart = st.WinStart
	clear(l.seen)
	for _, ip := range st.Seen {
		l.seen[ip] = struct{}{}
	}
	return nil
}

type slidingEntryState struct {
	Tick int64 `json:"tick"`
	Dst  IP    `json:"dst"`
}

type slidingState struct {
	Admissions []slidingEntryState `json:"admissions"`
}

// MarshalState implements StateMarshaler. Only the admission log is
// stored; the recency index is replayed from it on restore.
func (l *SlidingUniqueIPWindow) MarshalState() ([]byte, error) {
	st := slidingState{Admissions: make([]slidingEntryState, len(l.admissions))}
	for i, e := range l.admissions {
		st.Admissions[i] = slidingEntryState{Tick: e.tick, Dst: e.dst}
	}
	return json.Marshal(st)
}

// UnmarshalState implements StateMarshaler.
func (l *SlidingUniqueIPWindow) UnmarshalState(data []byte) error {
	var st slidingState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	l.admissions = l.admissions[:0]
	clear(l.lastSeen)
	for _, e := range st.Admissions {
		l.admissions = append(l.admissions, slidingEntry{tick: e.Tick, dst: e.Dst})
		l.lastSeen[e.Dst] = e.Tick
	}
	return nil
}

type workingSetState struct {
	// LRU is the working set, most recent first.
	LRU []IP `json:"lru"`
}

// MarshalState implements StateMarshaler.
func (w *WorkingSet) MarshalState() ([]byte, error) {
	return json.Marshal(workingSetState{LRU: append([]IP{}, w.recent...)})
}

// UnmarshalState implements StateMarshaler. Keys other than "lru" are
// ignored, so a WilliamsonThrottle's state restores into a WorkingSet
// of the same size. A working set longer than the size, or one naming
// an address twice, is rejected: no sequence of calls produces either.
func (w *WorkingSet) UnmarshalState(data []byte) error {
	var st workingSetState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.LRU) > w.size {
		return fmt.Errorf("working set of %d entries exceeds size %d", len(st.LRU), w.size)
	}
	for i, ip := range st.LRU {
		if slices.Contains(st.LRU[:i], ip) {
			return fmt.Errorf("working set lists %d twice", ip)
		}
	}
	w.recent = append(w.recent[:0], st.LRU...)
	return nil
}

type williamsonState struct {
	LRU       []IP  `json:"lru"`
	Queue     []IP  `json:"queue"`
	LastDrain int64 `json:"last_drain"`
}

// MarshalState implements StateMarshaler.
func (t *WilliamsonThrottle) MarshalState() ([]byte, error) {
	return json.Marshal(williamsonState{
		LRU:       append([]IP{}, t.recent...),
		Queue:     append([]IP{}, t.queue...),
		LastDrain: t.lastDrain,
	})
}

// UnmarshalState implements StateMarshaler; the working set is
// restored and validated by WorkingSet.UnmarshalState.
func (t *WilliamsonThrottle) UnmarshalState(data []byte) error {
	if err := t.WorkingSet.UnmarshalState(data); err != nil {
		return fmt.Errorf("williamson throttle: %w", err)
	}
	var st williamsonState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	t.queue = append(t.queue[:0], st.Queue...)
	t.lastDrain = st.LastDrain
	return nil
}

type hybridState struct {
	Short json.RawMessage `json:"short"`
	Long  json.RawMessage `json:"long"`
}

// MarshalState implements StateMarshaler.
func (h *HybridWindow) MarshalState() ([]byte, error) {
	s, err := h.short.MarshalState()
	if err != nil {
		return nil, err
	}
	l, err := h.long.MarshalState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(hybridState{Short: s, Long: l})
}

// UnmarshalState implements StateMarshaler.
func (h *HybridWindow) UnmarshalState(data []byte) error {
	var st hybridState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if err := h.short.UnmarshalState(st.Short); err != nil {
		return fmt.Errorf("hybrid short window: %w", err)
	}
	if err := h.long.UnmarshalState(st.Long); err != nil {
		return fmt.Errorf("hybrid long window: %w", err)
	}
	return nil
}

var (
	_ StateMarshaler = (*UniqueIPWindow)(nil)
	_ StateMarshaler = (*SlidingUniqueIPWindow)(nil)
	_ StateMarshaler = (*WorkingSet)(nil)
	_ StateMarshaler = (*WilliamsonThrottle)(nil)
	_ StateMarshaler = (*HybridWindow)(nil)
)
