package ratelimit

import (
	"strings"
	"testing"
)

// TestWilliamsonStateRoundTrip: a restored throttle serializes to the
// same bytes and makes the same decisions as the original.
func TestWilliamsonStateRoundTrip(t *testing.T) {
	orig, err := NewWilliamsonThrottle(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range []IP{1, 2, 1, 3, 4, 5, 2, 6} {
		orig.Allow(int64(i), dst)
		orig.Tick(int64(i))
	}
	data, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"lru":[5,4,3],"queue":[2,6],"last_drain":6}`; string(data) != want {
		t.Fatalf("state = %s, want %s", data, want)
	}
	restored, err := NewWilliamsonThrottle(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalState(data); err != nil {
		t.Fatal(err)
	}
	again, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("restored state = %s, want %s", again, data)
	}
	for i, dst := range []IP{5, 7, 2, 8, 6, 9} {
		now := int64(8 + i)
		if a, b := orig.Allow(now, dst), restored.Allow(now, dst); a != b {
			t.Fatalf("Allow(%d, %d): original %v, restored %v", now, dst, a, b)
		}
		ad, aok := orig.Tick(now)
		bd, bok := restored.Tick(now)
		if ad != bd || aok != bok {
			t.Fatalf("Tick(%d): original (%d, %v), restored (%d, %v)", now, ad, aok, bd, bok)
		}
	}
}

// TestWilliamsonTickRefreshesQueuedTwice: a destination queued twice is
// in the working set by its second release, which refreshes it instead
// of listing it twice or evicting another entry.
func TestWilliamsonTickRefreshesQueuedTwice(t *testing.T) {
	th, err := NewWilliamsonThrottle(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	th.Allow(0, 1)
	th.Allow(0, 2)
	th.Allow(0, 3)
	th.Allow(0, 3)
	th.Tick(1) // admits 3, evicts 1
	th.Tick(2) // 3 again: refresh only
	data, err := th.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"lru":[3,2],"queue":[],"last_drain":2}`; string(data) != want {
		t.Fatalf("state = %s, want %s", data, want)
	}
}

// TestWilliamsonStateRejects: states no sequence of calls can produce
// are refused on restore.
func TestWilliamsonStateRejects(t *testing.T) {
	cases := []struct {
		name  string
		state string
		err   string // "" = accepted
	}{
		{"full set", `{"lru":[1,2,3],"queue":[4],"last_drain":0}`, ""},
		{"partial set", `{"lru":[7],"queue":[],"last_drain":-1}`, ""},
		{"longer than the working set", `{"lru":[1,2,3,4],"queue":[],"last_drain":0}`, "exceeds size 3"},
		{"duplicate address", `{"lru":[1,2,1],"queue":[],"last_drain":0}`, "lists 1 twice"},
		{"adjacent duplicate", `{"lru":[9,9],"queue":[],"last_drain":0}`, "lists 9 twice"},
		{"not json", `{"lru":[1,`, "unexpected end"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			th, err := NewWilliamsonThrottle(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			err = th.UnmarshalState([]byte(c.state))
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("valid state rejected: %v", err)
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Fatalf("got error %v, want one containing %q", err, c.err)
			}
		})
	}
}
