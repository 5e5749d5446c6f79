package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
)

// DeployHostFraction returns a deterministic random selection of frac of
// the host nodes (or all nodes if roles is nil) to rate limit —
// Section 5.1's "q percent of nodes install the filter".
func DeployHostFraction(g *topology.Graph, roles []topology.Role, frac float64, seed int64) ([]int, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("sim: host fraction %v out of [0,1]", frac)
	}
	var hosts []int
	if roles == nil {
		hosts = make([]int, g.N())
		for i := range hosts {
			hosts[i] = i
		}
	} else {
		hosts = topology.NodesWithRole(roles, topology.RoleHost)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	k := int(frac * float64(len(hosts)))
	return hosts[:k], nil
}

// DeployEdgeRouters returns all edge-router nodes — Section 5.2's
// deployment set.
func DeployEdgeRouters(roles []topology.Role) []int {
	return topology.NodesWithRole(roles, topology.RoleEdge)
}

// DeployBackbone returns all backbone-router nodes — Section 5.3's
// deployment set.
func DeployBackbone(roles []topology.Role) []int {
	return topology.NodesWithRole(roles, topology.RoleBackbone)
}

// DeployEdgeUplinks returns the links that carry traffic between an edge
// router's subnet and the rest of the network: every link from an edge
// router to a neighbor that is not a host of its own subnet. Limiting
// these (rather than all edge-router links) leaves intra-subnet traffic
// unthrottled, matching Section 5.2's model where worms "propagate much
// faster within the subnet than across the Internet".
func DeployEdgeUplinks(g *topology.Graph, roles []topology.Role, subnet []int) []routing.LinkID {
	edges := topology.NodesWithRole(roles, topology.RoleEdge)
	var out []routing.LinkID
	for idx, e := range edges {
		for _, v := range g.Neighbors(e) {
			if roles[v] == topology.RoleHost && subnet[v] == idx {
				continue // link into our own subnet
			}
			out = append(out, routing.MakeLinkID(e, int(v)))
		}
	}
	return out
}

// MultiRun executes runs replicas of cfg with seeds cfg.Seed,
// cfg.Seed+1, ... and returns the element-wise average of their series —
// the paper averages each simulated curve over 10 runs. It is
// MultiRunContext with a background context and the default worker
// bound (GOMAXPROCS).
func MultiRun(cfg Config, runs int) (*Result, error) {
	return MultiRunContext(context.Background(), cfg, runs)
}

// MultiRunContext executes runs replicas of cfg on a bounded
// runner.Pool (configure with runner.WithJobs / runner.WithProgress)
// and returns the element-wise average of their series. Each replica
// gets the deterministic seed cfg.Seed + its index, so for a fixed
// seed the averaged series is byte-identical regardless of the job
// count or scheduling order. The replicas share one immutable routing
// table, built once up front. Cancelling ctx aborts the batch between
// ticks and returns ctx's error; a progress callback installed via
// runner.WithProgress observes partial runner.Stats in that case.
func MultiRunContext(ctx context.Context, cfg Config, runs int, opts ...runner.Option) (*Result, error) {
	res, _, err := MultiRunStats(ctx, cfg, runs, opts...)
	return res, err
}

// MultiRunStats is MultiRunContext returning the final runner.Stats
// alongside the aggregate, for callers that report batch health.
//
// Fault tolerance: with runner.WithKeepGoing the batch degrades
// gracefully — a replica that fails (after any configured retries) is
// recorded in Stats.Failures, and the aggregate averages over the
// replicas that completed; only a batch where *every* replica failed
// returns an error. With Config.CheckpointFactory each replica
// periodically writes snapshots through its own sink, and with
// Config.ResumeFactory each replica (including a retry of a crashed
// one) first asks for a snapshot to resume from, so a retried replica
// restarts from its own last checkpoint rather than tick zero.
func MultiRunStats(ctx context.Context, cfg Config, runs int, opts ...runner.Option) (*Result, runner.Stats, error) {
	if runs < 1 {
		return nil, runner.Stats{}, fmt.Errorf("sim: runs %d must be >= 1", runs)
	}
	// Validate once up front so workers cannot fail on config errors.
	if err := cfg.Validate(); err != nil {
		return nil, runner.Stats{}, err
	}
	if !cfg.Graph.Connected() {
		return nil, runner.Stats{}, topology.ErrDisconnected
	}
	// All replicas route over the same graph: build the shared routing
	// state (link enumeration, structural router) once; it is read-only
	// after construction. A caller-supplied Config.Net (a sweep sharing
	// one topology across batches) is reused as-is.
	ns := cfg.Net.state()
	if ns == nil {
		ns = newNetState(cfg.Graph)
	}

	// results/done are committed under mu: with a per-task deadline the
	// runner abandons a timed-out attempt's goroutine, which may still
	// finish concurrently with a retry of the same replica (both compute
	// the identical result — the lock makes the duplicate commit safe).
	var mu sync.Mutex
	results := make([]*Result, runs)
	done := make([]bool, runs)
	pool := runner.New(opts...)
	stats, err := pool.Run(ctx, runs, func(ctx context.Context, r int) (runner.Report, error) {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		if cfg.Faults != nil {
			// Replicas decorrelate their fault streams exactly like their
			// simulation streams: each gets the deterministic fault seed
			// Faults.Seed + its index (re-derived identically on a retry).
			p := *cfg.Faults
			p.Seed += int64(r)
			c.Faults = &p
		}
		if cfg.CollectorFactory != nil {
			c.Collector = cfg.CollectorFactory(r)
		}
		if cfg.CheckpointFactory != nil {
			c.Checkpoint = cfg.CheckpointFactory(r)
		}
		var eng *Engine
		if cfg.ResumeFactory != nil {
			snap, rerr := cfg.ResumeFactory(r)
			if rerr != nil {
				return runner.Report{}, fmt.Errorf("sim: run %d: resume: %w", r, rerr)
			}
			if snap != nil {
				eng, rerr = restoreEngine(c, snap, ns)
				if rerr != nil {
					return runner.Report{}, fmt.Errorf("sim: run %d: %w", r, rerr)
				}
			}
		}
		if eng == nil {
			var nerr error
			eng, nerr = newEngine(c, ns)
			if nerr != nil {
				return runner.Report{}, fmt.Errorf("sim: run %d: %w", r, nerr)
			}
		}
		res, rerr := eng.RunContext(ctx)
		if rerr != nil {
			// Partial series are not committed: a degraded batch must
			// average complete replicas only.
			return runner.Report{Ticks: int64(len(res.Infected))}, fmt.Errorf("sim: run %d: %w", r, rerr)
		}
		mu.Lock()
		results[r] = res
		done[r] = true
		mu.Unlock()
		rep := runner.Report{Ticks: int64(len(res.Infected))}
		if s, ok := c.Collector.(obs.Summarizer); ok {
			rep.Counters = s.Summary().Counters()
		}
		return rep, nil
	})
	if err != nil {
		return nil, stats, err
	}

	mu.Lock()
	defer mu.Unlock()
	completed := 0
	for _, ok := range done {
		if ok {
			completed++
		}
	}
	if completed == 0 {
		err := fmt.Errorf("sim: all %d replicas failed", runs)
		if len(stats.Failures) > 0 {
			err = fmt.Errorf("sim: all %d replicas failed; replica %d: %w",
				runs, stats.Failures[0].Index, stats.Failures[0].Err)
		}
		return nil, stats, err
	}

	agg := &Result{
		Infected:     make([]float64, cfg.Ticks),
		EverInfected: make([]float64, cfg.Ticks),
		Immunized:    make([]float64, cfg.Ticks),
		Backlog:      make([]int, cfg.Ticks),
	}
	if cfg.TrackSubnets {
		agg.WithinSubnet = make([]float64, cfg.Ticks)
	}
	if cfg.TrackLatency {
		agg.MeanLatency = make([]float64, cfg.Ticks)
	}
	first := true
	for r, res := range results {
		if !done[r] {
			continue
		}
		for i := 0; i < cfg.Ticks; i++ {
			agg.Infected[i] += res.Infected[i]
			agg.EverInfected[i] += res.EverInfected[i]
			agg.Immunized[i] += res.Immunized[i]
			agg.Backlog[i] += res.Backlog[i]
			if cfg.TrackSubnets {
				agg.WithinSubnet[i] += res.WithinSubnet[i]
			}
			if cfg.TrackLatency {
				agg.MeanLatency[i] += res.MeanLatency[i]
			}
		}
		if first {
			first = false
			// Genealogy and activation tick are per-run data; keep the
			// first completed run's values.
			agg.Infections = res.Infections
			agg.QuarantineTick = res.QuarantineTick
		}
	}
	// Key-wise summed counters are order-independent, so the aggregate
	// is identical for every job count. Failed replicas contribute no
	// counters (their Reports carry none).
	agg.Counters = stats.Counters
	inv := 1 / float64(completed)
	for i := 0; i < cfg.Ticks; i++ {
		agg.Infected[i] *= inv
		agg.EverInfected[i] *= inv
		agg.Immunized[i] *= inv
		agg.Backlog[i] /= completed
		if cfg.TrackSubnets {
			agg.WithinSubnet[i] *= inv
		}
		if cfg.TrackLatency {
			agg.MeanLatency[i] *= inv
		}
	}
	return agg, stats, nil
}
