package sim

import (
	"context"
	"testing"
)

func TestTrackLatencyOpenNetwork(t *testing.T) {
	cfg := baseConfig(t, 100)
	cfg.TrackLatency = true
	res, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanLatency) != cfg.Ticks {
		t.Fatalf("latency series length %d", len(res.MeanLatency))
	}
	// On an uncongested BA graph the latency is the shortest-path hop
	// count: small and stable.
	peak := 0.0
	for _, l := range res.MeanLatency {
		if l < 0 {
			t.Fatal("negative latency")
		}
		if l > peak {
			peak = l
		}
	}
	if peak < 1 || peak > 15 {
		t.Errorf("peak open-network latency %v, want a few hops", peak)
	}
}

func TestRateLimitingRaisesLatency(t *testing.T) {
	cfg := baseConfig(t, 150)
	cfg.TrackLatency = true
	cfg.ScansPerTick = 10
	cfg.MaxQueue = 50
	open, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LimitedNodes = DeployBackbone(cfg.Roles)
	cfg.BaseRate = 0.4
	limited, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxOpen, maxLimited := 0.0, 0.0
	for i := range open.MeanLatency {
		if open.MeanLatency[i] > maxOpen {
			maxOpen = open.MeanLatency[i]
		}
		if limited.MeanLatency[i] > maxLimited {
			maxLimited = limited.MeanLatency[i]
		}
	}
	if maxLimited <= maxOpen {
		t.Errorf("rate limiting should raise queueing latency: %v vs %v", maxLimited, maxOpen)
	}
}
