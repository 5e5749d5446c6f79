package spec

import (
	"context"
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// PointResult is the outcome of one grid point of a sweep.
type PointResult struct {
	// Point is the compiled scenario that ran (name, scenario,
	// options, replica count).
	Point *Compiled
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
	// Points is the number of grid points executed (or attempted).
	Points int
	// NetBuilds counts how many topology states this sweep actually
	// materialized — cache misses that built, not Gets. Grid points
	// whose axes leave the topology alone share one build, so a pure
	// worm/defense sweep on a cold cache builds 1 regardless of grid
	// size; a sweep run over an already-warm shared cache (SweepCache)
	// can report 0.
	NetBuilds int
	// Failed counts points that errored.
	Failed int
}

// Sweep expands the spec's grid and runs every point sequentially,
// each point a replica batch on the runner pool (its Jobs knob owns
// the parallelism — points are serialized so their replica pools don't
// oversubscribe each other, and so results arrive in grid order).
//
// Immutable topology state is deduplicated across points by
// Scenario.NetKey: the first point with a given key materializes the
// graph and routing tables (core.Scenario.BuildNet), and every later
// point with the same key reuses them via RunOptions.Net. A β sweep
// over a 100k-node topology builds routing once, not once per point.
// Sweep dedups through a private, unbounded NetCache that lives for
// this call only; a long-lived scheduler sharing one warm cache across
// many sweeps uses SweepCache instead.
//
// mod, when non-nil, is applied to each compiled point before it runs
// — the CLIs use it to overlay command-line flags on the spec's run
// options. A point that fails aborts the sweep unless its (possibly
// modified) options set KeepGoing, in which case the failure is
// recorded in its PointResult and the sweep continues; Sweep returns
// an error only when every point failed or the context was cancelled.
func Sweep(ctx context.Context, s *Spec, mod func(*Compiled)) ([]PointResult, SweepStats, error) {
	return SweepCache(ctx, s, mod, NewNetCache(0))
}

// SweepCache is Sweep running its topology dedup through a
// caller-supplied NetCache — the sharing point between the sweep engine
// and the wormsimd daemon, whose cache outlives any one sweep and is
// capped by an LRU. SweepStats.NetBuilds counts only the builds this
// sweep performed: points served from an already-warm cache report 0.
func SweepCache(ctx context.Context, s *Spec, mod func(*Compiled), cache *NetCache) ([]PointResult, SweepStats, error) {
	points, err := s.Expand()
	if err != nil {
		return nil, SweepStats{}, err
	}
	results := make([]PointResult, 0, len(points))
	var stats SweepStats
	for _, c := range points {
		if mod != nil {
			mod(c)
		}
		stats.Points++
		pr := PointResult{Point: c, Warnings: c.Scenario.Warnings()}

		key, kerr := c.Scenario.NetKey()
		if kerr != nil {
			pr.Err = kerr
		} else {
			sc := c.Scenario
			net, built, kerr := cache.Get(key, sc.BuildNet)
			if built {
				stats.NetBuilds++
			}
			if kerr != nil {
				pr.Err = kerr
			} else {
				opts := c.Options
				opts.Net = net
				pr.Result, pr.Stats, pr.Err = c.Scenario.SimulateOptions(ctx, c.Runs, opts)
			}
		}

		if pr.Err != nil {
			stats.Failed++
			pr.Err = fmt.Errorf("spec: point %s: %w", c.Name, pr.Err)
			results = append(results, pr)
			if ctx.Err() != nil || !c.Options.KeepGoing {
				return results, stats, pr.Err
			}
			continue
		}
		results = append(results, pr)
	}
	if stats.Failed == len(points) && len(points) > 0 {
		return results, stats, fmt.Errorf("spec: all %d sweep points failed; first: %w", len(points), results[0].Err)
	}
	return results, stats, nil
}
