package spec

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// PointResult is the outcome of one grid point of a sweep.
type PointResult struct {
	// Name labels the point (see Spec.Point).
	Name string
	// Result is the averaged series (nil when Err is set).
	Result *sim.Result
	// Stats is the replica batch's final runner stats.
	Stats runner.Stats
	// Warnings are the scenario's advisory warnings under its options.
	Warnings []string
	// Err is the point's failure, when keep-going let the sweep
	// continue past it.
	Err error
}

// SweepStats summarizes a sweep's execution.
type SweepStats struct {
	// NetBuilds counts how many topology states this sweep actually
	// materialized — cache misses that built, not Gets. Grid points
	// whose axes leave the topology alone share one build, so a pure
	// worm/defense sweep on a cold cache builds 1 regardless of grid
	// size; a sweep run over an already-warm shared cache can report 0.
	NetBuilds int
	// Failed counts points that errored.
	Failed int
}

// Sweep compiles and runs the spec's grid points one at a time, in
// order, each a replica batch on the runner pool (its Jobs knob owns
// the parallelism — points are serialized so their replica pools don't
// oversubscribe each other, and so results arrive in grid order).
//
// Immutable topology state is deduplicated across points by
// Spec.NetKey through cache: the first point with a given key
// materializes the graph and routing tables (Spec.BuildNet), and every
// later point with the same key reuses them. A β sweep over a
// 100k-node topology builds routing once, not once per point. A nil
// cache means a private, unbounded one that lives for this call only;
// a long-lived scheduler (the wormsimd daemon) passes one capped cache
// that outlives every sweep, so SweepStats.NetBuilds counts only the
// builds this sweep performed.
//
// mod, when non-nil, is applied to each point before it runs — the
// CLIs use it to overlay command-line flags on the spec's run options;
// a point that did not compile reaches it as a stand-in with its name,
// no replicas and the sweep's keep_going. A point that fails aborts
// the sweep unless its (possibly modified) options set KeepGoing, in
// which case the failure is recorded in its PointResult and the sweep
// continues; Sweep returns an error only when every point failed or
// the context was cancelled.
func Sweep(ctx context.Context, s *Spec, mod func(*Compiled), cache *NetCache) ([]PointResult, SweepStats, error) {
	if cache == nil {
		cache = NewNetCache(0)
	}
	n, err := s.Points()
	if err != nil {
		return nil, SweepStats{}, err
	}
	results := make([]PointResult, 0, n)
	var stats SweepStats
	for i := 0; i < n; i++ {
		pt, name, err := s.Point(i)
		var key string
		if err == nil {
			key, err = pt.NetKey()
		}
		var net *Net
		if err == nil {
			var built bool
			net, built, err = cache.Get(key, pt.BuildNet)
			if built {
				stats.NetBuilds++
			}
		}
		var c *Compiled
		if err == nil {
			c, err = pt.Compile(net)
		}
		if err != nil {
			c = &Compiled{Options: core.RunOptions{KeepGoing: s.Run != nil && s.Run.KeepGoing}}
		}
		c.Name = name
		if mod != nil {
			mod(c)
		}
		pr := PointResult{Name: name}
		if err == nil {
			pr.Warnings = pt.Warnings()
			pr.Result, pr.Stats, err = c.Run(ctx)
		}
		if err != nil {
			stats.Failed++
			pr.Err = fmt.Errorf("spec: point %s: %w", name, err)
		}
		results = append(results, pr)
		if err != nil && (ctx.Err() != nil || !c.Options.KeepGoing) {
			return results, stats, pr.Err
		}
	}
	switch {
	case n == 1 && stats.Failed == 1:
		return results, stats, results[0].Err
	case n > 1 && stats.Failed == n:
		return results, stats, fmt.Errorf("spec: all %d sweep points failed; first: %w", n, results[0].Err)
	}
	return results, stats, nil
}
