package spec

import (
	"context"
	"runtime"
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
	if len(results) != 3 || stats.Failed != 0 {
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
			t.Fatalf("point %s: %v", r.Name, r.Err)
		}
		if r.Result == nil || len(r.Result.Infected) == 0 {
			t.Errorf("point %s: empty result", r.Name)
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
	for i, r := range results {
		pt, _, err := s.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := pt.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		solo.Runs, solo.Options = 1, core.RunOptions{}
		res, _, err := solo.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Infected) != len(r.Result.Infected) {
			t.Fatalf("point %s: series length mismatch", r.Name)
		}
		for i := range res.Infected {
			if res.Infected[i] != r.Result.Infected[i] {
				t.Fatalf("point %s: tick %d: shared-net %v != standalone %v",
					r.Name, i, r.Result.Infected[i], res.Infected[i])
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
	if stats.Failed != 1 || len(results) != 3 {
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
	if len(results) != 2 {
		t.Errorf("aborting sweep ran %d points, want 2 (one success, one failure)", len(results))
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

// TestOneLoweringPerPoint: a point is lowered — and its topology
// materialized — once. A single-point Sweep over a ≈100k-host graph
// allocates about one BuildNet plus the run, and so does Compile(nil)
// followed by Run; a second lowering would add another materialization
// on top.
func TestOneLoweringPerPoint(t *testing.T) {
	s := &Spec{
		Format: Format, Version: Version,
		Topology: Topology{Kind: "twolevel", ASes: 400, AttachM: 2, TransitFraction: 0.05, HostsPerStub: 264},
		Worm:     Worm{Kind: "random", Beta: 0.8},
		Ticks:    1,
	}
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	ctx := context.Background()
	var net *Net
	build := allocs(func() {
		var err error
		if net, err = s.BuildNet(); err != nil {
			t.Fatal(err)
		}
	})
	materialize := allocs(func() {
		if _, _, _, err := s.materialize(); err != nil {
			t.Fatal(err)
		}
	})
	run := allocs(func() {
		c, err := s.Compile(net)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Run(ctx); err != nil {
			t.Fatal(err)
		}
	})
	sweep := allocs(func() {
		if _, _, err := Sweep(ctx, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	compileRun := allocs(func() {
		c, err := s.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Run(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("build %d materialize %d run %d sweep %d compile+run %d", build, materialize, run, sweep, compileRun)
	limit := build + run + materialize/2
	if sweep > limit {
		t.Errorf("Sweep allocated %d bytes, over one BuildNet (%d) plus the run (%d) plus half a materialization (%d): the point was lowered twice",
			sweep, build, run, materialize/2)
	}
	if compileRun > limit {
		t.Errorf("Compile(nil)+Run allocated %d bytes, over one BuildNet (%d) plus the run (%d) plus half a materialization (%d): the point was lowered twice",
			compileRun, build, run, materialize/2)
	}
}

// TestSweepLastPointInvalid: points are compiled as the sweep reaches
// them, so a grid whose last point does not compile runs the points
// before it. Under keep-going the bad point is a failed point whose
// error names it; without, it aborts the sweep after the others ran.
func TestSweepLastPointInvalid(t *testing.T) {
	s := sweepSpec(t)
	s.Grid = []Axis{{Path: "worm.beta", Values: rawValues("0.2", "0.5", "2.5")}}
	// Keep-going from a command-line overlay (mod) and from the spec's
	// own run section.
	viaMod := func(c *Compiled) { c.Options.KeepGoing = true }
	viaSpec := *s
	viaSpec.Run = &Run{KeepGoing: true}
	for _, tc := range []struct {
		s   *Spec
		mod func(*Compiled)
	}{{s, viaMod}, {&viaSpec, nil}} {
		results, stats, err := Sweep(context.Background(), tc.s, tc.mod, nil)
		if err != nil {
			t.Fatalf("keep-going sweep returned %v", err)
		}
		if stats.Failed != 1 || len(results) != 3 {
			t.Fatalf("stats = %+v with %d results, want 3 points, 1 failed", stats, len(results))
		}
		for _, r := range results[:2] {
			if r.Err != nil || r.Result == nil {
				t.Errorf("point %s: result %v, err %v; want a result", r.Name, r.Result, r.Err)
			}
		}
		bad := results[2]
		if bad.Err == nil || bad.Result != nil || bad.Name != "beta-sweep[worm.beta=2.5]" ||
			!strings.Contains(bad.Err.Error(), "point beta-sweep[worm.beta=2.5]: sim: beta 2.5") {
			t.Errorf("invalid point %s: result %v, err %v; want an error naming it and its beta", bad.Name, bad.Result, bad.Err)
		}
	}

	results, stats, err := Sweep(context.Background(), s, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "worm.beta=2.5") {
		t.Fatalf("sweep without keep-going: err = %v, want the invalid point's error", err)
	}
	if len(results) != 3 || results[0].Err != nil || results[1].Err != nil {
		t.Errorf("aborted sweep: stats %+v, %d results; want the two valid points run first", stats, len(results))
	}
}
