package spec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func sweepSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse([]byte(`
format: wormsim-scenario
version: 1
name: beta-sweep
topology:
  kind: powerlaw
  nodes: 80
topology_seed: 4
worm:
  kind: random
  beta: 0.4
ticks: 30
seed: 7
grid:
  - path: worm.beta
    values: [0.2, 0.5, 0.8]
`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSweepSharesNet pins the tentpole's dedup guarantee: grid points
// whose axes leave the topology alone materialize exactly one network
// state between them.
func TestSweepSharesNet(t *testing.T) {
	s := sweepSpec(t)
	results, stats, err := Sweep(context.Background(), s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 3 || stats.Failed != 0 {
		t.Errorf("stats = %+v, want 3 points, 0 failed", stats)
	}
	if stats.NetBuilds != 1 {
		t.Errorf("NetBuilds = %d, want 1 (worm sweep must share the topology)", stats.NetBuilds)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("point %s: %v", r.Point.Name, r.Err)
		}
		if r.Result == nil || len(r.Result.Infected) == 0 {
			t.Errorf("point %s: empty result", r.Point.Name)
		}
	}
	// Higher β must not shrink the epidemic's final footprint here.
	if results[2].Result.FinalEverInfected() < results[0].Result.FinalEverInfected() {
		t.Errorf("β=0.8 ever-infected %v < β=0.2 ever-infected %v",
			results[2].Result.FinalEverInfected(), results[0].Result.FinalEverInfected())
	}
}

// TestSweepTopologyAxisRebuilds is the counterpart: an axis that does
// vary the topology gets one build per distinct shape.
func TestSweepTopologyAxisRebuilds(t *testing.T) {
	s := sweepSpec(t)
	s.Grid = []Axis{{Path: "topology.nodes", Values: rawValues("60", "80")}}
	_, stats, err := Sweep(context.Background(), s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NetBuilds != 2 {
		t.Errorf("NetBuilds = %d, want 2 (topology axis)", stats.NetBuilds)
	}
}

// TestSweepSharedSeriesIdentity: a point run with the shared net must
// produce the exact series the scenario produces standalone.
func TestSweepSharedSeriesIdentity(t *testing.T) {
	s := sweepSpec(t)
	results, _, err := Sweep(context.Background(), s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		pt := *r.Point
		pt.Runs, pt.Options = 1, core.RunOptions{}
		solo, _, err := pt.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(solo.Infected) != len(r.Result.Infected) {
			t.Fatalf("point %s: series length mismatch", r.Point.Name)
		}
		for i := range solo.Infected {
			if solo.Infected[i] != r.Result.Infected[i] {
				t.Fatalf("point %s: tick %d: shared-net %v != standalone %v",
					r.Point.Name, i, r.Result.Infected[i], solo.Infected[i])
			}
		}
	}
}

func TestSweepKeepGoing(t *testing.T) {
	s := sweepSpec(t)
	// Make the middle grid point invalid at run time by breaking its
	// options through the mod hook; the spec itself stays valid.
	breakPoint := func(c *Compiled) {
		c.Options.KeepGoing = true
		if strings.Contains(c.Name, "0.5") {
			c.Runs = 0 // invalid replica count -> Run error
		}
	}
	results, stats, err := Sweep(context.Background(), s, breakPoint, nil)
	if err != nil {
		t.Fatalf("keep-going sweep returned %v", err)
	}
	if stats.Failed != 1 || stats.Points != 3 {
		t.Errorf("stats = %+v, want 3 points with 1 failure", stats)
	}
	var failed int
	for _, r := range results {
		if r.Err != nil {
			failed++
			if !strings.Contains(r.Err.Error(), "point beta-sweep[worm.beta=0.5]") {
				t.Errorf("failure not attributed to its point: %v", r.Err)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d failed results, want 1", failed)
	}

	// Without keep-going the same failure aborts the sweep.
	abort := func(c *Compiled) {
		if strings.Contains(c.Name, "0.5") {
			c.Runs = 0
		}
	}
	results, stats, err = Sweep(context.Background(), s, abort, nil)
	if err == nil {
		t.Fatal("sweep without keep-going did not abort")
	}
	if len(results) != 2 || stats.Points != 2 {
		t.Errorf("aborting sweep ran %d points, want 2 (one success, one failure)", stats.Points)
	}
}

func TestSweepAllFailed(t *testing.T) {
	s := sweepSpec(t)
	sabotage := func(c *Compiled) {
		c.Options.KeepGoing = true
		c.Runs = 0
	}
	_, stats, err := Sweep(context.Background(), s, sabotage, nil)
	if err == nil || !strings.Contains(err.Error(), "all 3 sweep points failed") {
		t.Fatalf("err = %v, want all-points-failed", err)
	}
	if stats.Failed != 3 {
		t.Errorf("Failed = %d, want 3", stats.Failed)
	}
}
