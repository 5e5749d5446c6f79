package ratelimit_test

import (
	"fmt"

	"repro/internal/ratelimit"
)

// Williamson's virus throttle: local traffic flows, a scanner's fresh
// destinations pile up in the delay queue — the worm alarm.
func ExampleWilliamsonThrottle() {
	th, err := ratelimit.NewWilliamsonThrottle(5, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// A scanning worm: 30 fresh destinations in 3 ticks.
	dst := ratelimit.IP(1)
	allowed := 0
	for tick := int64(0); tick < 3; tick++ {
		for k := 0; k < 10; k++ {
			if th.Allow(tick, dst) {
				allowed++
			}
			dst++
		}
		th.Tick(tick)
	}
	fmt.Printf("allowed %d of 30, queue %d\n", allowed, th.QueueLen())
	// Output: allowed 5 of 30, queue 22
}

// The hybrid window the paper proposes: a short window for burst
// tolerance stacked on a long window for a tight long-term rate.
func ExampleHybridWindow() {
	h, err := ratelimit.NewHybridWindow(5, 1, 12, 5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	allowed := 0
	dst := ratelimit.IP(1)
	for tick := int64(0); tick < 5; tick++ {
		for k := 0; k < 5; k++ {
			if h.Allow(tick, dst) {
				allowed++
			}
			dst++
		}
	}
	fmt.Printf("allowed %d of 25 contacts over 5 ticks\n", allowed)
	// Output: allowed 12 of 25 contacts over 5 ticks
}
