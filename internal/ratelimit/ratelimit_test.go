package ratelimit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniqueIPWindowBasics(t *testing.T) {
	l, err := NewUniqueIPWindow(3, 5)
	if err != nil {
		t.Fatalf("NewUniqueIPWindow: %v", err)
	}
	// Three distinct IPs pass, the fourth is blocked.
	for ip := IP(1); ip <= 3; ip++ {
		if !l.Allow(0, ip) {
			t.Fatalf("ip %d should pass", ip)
		}
	}
	if l.Allow(1, 4) {
		t.Error("fourth distinct ip should be blocked")
	}
	// Repeats to already-seen IPs are free.
	if !l.Allow(2, 1) || !l.Allow(3, 3) {
		t.Error("repeat contacts should pass")
	}
	if got := l.Distinct(3); got != 3 {
		t.Errorf("Distinct = %d, want 3", got)
	}
	// Window rolls: budget refreshes.
	if !l.Allow(5, 4) {
		t.Error("after window roll, new ip should pass")
	}
	if got := l.Distinct(5); got != 1 {
		t.Errorf("Distinct after roll = %d, want 1", got)
	}
}

func TestUniqueIPWindowConfigErrors(t *testing.T) {
	if _, err := NewUniqueIPWindow(0, 5); err == nil {
		t.Error("max=0 should fail")
	}
	if _, err := NewUniqueIPWindow(3, 0); err == nil {
		t.Error("window=0 should fail")
	}
}

// Property: in any single window, at most max distinct destinations are
// ever admitted.
func TestUniqueIPWindowCapProperty(t *testing.T) {
	f := func(seed int64, maxRaw, nReq uint8) bool {
		max := int(maxRaw%10) + 1
		l, err := NewUniqueIPWindow(max, 100)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		admitted := make(map[IP]struct{})
		for i := 0; i < int(nReq)+20; i++ {
			dst := IP(rng.Intn(50))
			if l.Allow(int64(rng.Intn(100)), dst) {
				admitted[dst] = struct{}{}
			}
		}
		return len(admitted) <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWilliamsonThrottleLocality(t *testing.T) {
	th, err := NewWilliamsonThrottle(5, 1)
	if err != nil {
		t.Fatalf("NewWilliamsonThrottle: %v", err)
	}
	// Normal behaviour: a handful of repeat destinations always pass.
	for now := int64(0); now < 100; now++ {
		dst := IP(now % 4)
		if !th.Allow(now, dst) {
			t.Fatalf("local traffic blocked at tick %d", now)
		}
	}
	if th.QueueLen() != 0 {
		t.Errorf("queue = %d, want 0 for local traffic", th.QueueLen())
	}
}

func TestWilliamsonThrottleScanClamped(t *testing.T) {
	th, err := NewWilliamsonThrottle(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A scanner contacting 100 fresh addresses per tick: only the drain
	// rate (1/tick) gets through after the working set fills.
	allowed := 0
	next := IP(1000)
	for now := int64(0); now < 50; now++ {
		for k := 0; k < 100; k++ {
			if th.Allow(now, next) {
				allowed++
			}
			next++
		}
		th.Tick(now)
	}
	// First 5 fill the working set; after that 0 direct admissions.
	if allowed != 5 {
		t.Errorf("directly allowed = %d, want 5 (working set size)", allowed)
	}
	if th.QueueLen() < 4000 {
		t.Errorf("queue = %d, want huge backlog (worm signal)", th.QueueLen())
	}
}

func TestWilliamsonThrottleDrain(t *testing.T) {
	th, err := NewWilliamsonThrottle(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !th.Allow(0, 1) || !th.Allow(0, 2) {
		t.Fatal("working set admissions failed")
	}
	if th.Allow(0, 3) {
		t.Fatal("third destination should queue")
	}
	// Drain at tick 1 admits 3 and evicts the LRU (1).
	if dst, ok := th.Tick(1); !ok || dst != 3 {
		t.Fatalf("Tick = (%v, %v), want (3, true)", dst, ok)
	}
	if !th.Allow(1, 3) {
		t.Error("3 should now be in the working set")
	}
	if th.Allow(1, 1) {
		t.Error("1 should have been evicted")
	}
	// Second drain within the period does nothing.
	if th.Allow(2, 9) {
		t.Error("9 should queue")
	}
	if _, ok := th.Tick(3); ok {
		t.Error("drain before period elapsed should do nothing")
	}
	if _, ok := th.Tick(6); !ok {
		t.Error("drain after period should release")
	}
	// Release the remaining queued destination (9), then verify an empty
	// queue drains nothing.
	if dst, ok := th.Tick(20); !ok || dst != 9 {
		t.Errorf("Tick = (%v, %v), want (9, true)", dst, ok)
	}
	if _, ok := th.Tick(100); ok {
		t.Error("empty queue drain should report false")
	}
}

func TestWilliamsonThrottleConfigErrors(t *testing.T) {
	if _, err := NewWilliamsonThrottle(0, 1); err == nil {
		t.Error("workingSet=0 should fail")
	}
	if _, err := NewWilliamsonThrottle(5, 0); err == nil {
		t.Error("period=0 should fail")
	}
}

// TestWorkingSetMatchesUndrainedThrottle: a WorkingSet decides every
// contact as a WilliamsonThrottle whose queue is never drained, and
// restores from that throttle's state.
func TestWorkingSetMatchesUndrainedThrottle(t *testing.T) {
	if _, err := NewWorkingSet(0); err == nil {
		t.Error("size=0 should fail")
	}
	ws, err := NewWorkingSet(4)
	if err != nil {
		t.Fatal(err)
	}
	th, err := NewWilliamsonThrottle(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for now := int64(0); now < 2000; now++ {
		dst := IP(rng.Intn(9))
		if a, b := ws.Allow(now, dst), th.Allow(now, dst); a != b {
			t.Fatalf("Allow(%d, %d): working set %v, throttle %v", now, dst, a, b)
		}
	}
	state, err := th.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := NewWorkingSet(4)
	if err := restored.UnmarshalState(state); err != nil {
		t.Fatalf("throttle state %s rejected: %v", state, err)
	}
	a, _ := ws.MarshalState()
	b, _ := restored.MarshalState()
	if string(a) != string(b) {
		t.Errorf("restored working set %s, want %s", b, a)
	}
}

func TestHybridWindow(t *testing.T) {
	// Short: 5 per 1 tick. Long: 12 per 5 ticks (the paper's observed
	// 99.9% values for 1 s and 5 s windows).
	h, err := NewHybridWindow(5, 1, 12, 5)
	if err != nil {
		t.Fatalf("NewHybridWindow: %v", err)
	}
	// Burst of 5 in tick 0 passes (short cap), 6th blocked.
	next := IP(0)
	for i := 0; i < 5; i++ {
		if !h.Allow(0, next) {
			t.Fatalf("contact %d should pass", i)
		}
		next++
	}
	if h.Allow(0, next) {
		t.Error("6th contact in one tick should be blocked by short window")
	}
	next++
	// Ticks 1 and 2: 5 and 2 more — the long window (12/5) binds.
	allowed := 0
	for tick := int64(1); tick <= 2; tick++ {
		for i := 0; i < 5; i++ {
			if h.Allow(tick, next) {
				allowed++
			}
			next++
		}
	}
	if allowed != 7 { // 12 total - 5 already used
		t.Errorf("allowed in ticks 1-2 = %d, want 7 (long window cap)", allowed)
	}
	if _, err := NewHybridWindow(5, 10, 12, 5); err == nil {
		t.Error("long window <= short window should fail")
	}
}
