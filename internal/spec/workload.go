package spec

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// paperClassTotal is the trace generator's paper population (999
// normal + 17 servers + 33 P2P + 79 infected hosts); the synthetic
// workload defaults scale this mix down to the topology's host count.
const paperClassTotal = trace.PaperNormalClients + trace.PaperServers +
	trace.PaperP2PClients + trace.PaperInfected

// validate checks the workload section; errors name its spec fields.
func (w *Workload) validate() error {
	switch w.Kind {
	case "synthetic":
		if w.Path != "" {
			return fmt.Errorf("spec: workload.path is for kind \"trace\"; a synthetic workload takes none (got %q)", w.Path)
		}
	case "trace":
		if w.Path == "" {
			return fmt.Errorf("spec: workload kind \"trace\" needs workload.path, the trace file path")
		}
	default:
		return fmt.Errorf("spec: unknown workload.kind %q (want synthetic, trace)", w.Kind)
	}
	switch {
	case w.TickMS < 0:
		return fmt.Errorf("spec: workload.tick_ms must be >= 0 (0 = 1000), got %d", w.TickMS)
	case w.DurationMS < 0:
		return fmt.Errorf("spec: workload.duration_ms must be >= 0, got %d", w.DurationMS)
	case w.Normal < 0 || w.Servers < 0 || w.P2P < 0 || w.Infected < 0:
		return fmt.Errorf("spec: workload.normal, .servers, .p2p and .infected must be >= 0")
	case w.BlasterFraction < 0 || w.BlasterFraction > 1:
		return fmt.Errorf("spec: workload.blaster_fraction %v out of [0,1]", w.BlasterFraction)
	case w.WormOnsetMS < 0:
		return fmt.Errorf("spec: workload.worm_onset_ms must be >= 0, got %d", w.WormOnsetMS)
	}
	return nil
}

// fileWorkload is a record replayer plus the file it streams, closed by
// the engine when the run finishes.
type fileWorkload struct {
	*trace.Replayer
	f *os.File
}

func (w *fileWorkload) Close() error { return w.f.Close() }

// replayHostNodes returns the simulation nodes trace hosts map onto:
// the topology's host-role nodes in ascending order (every node for
// unrouted topologies), capped at the trace format's host ceiling.
func replayHostNodes(cfg *sim.Config) []int {
	var hosts []int
	if cfg.Roles != nil {
		hosts = topology.NodesWithRole(cfg.Roles, topology.RoleHost)
	} else {
		hosts = make([]int, cfg.Graph.N())
		for i := range hosts {
			hosts[i] = i
		}
	}
	if len(hosts) > 1<<16 {
		hosts = hosts[:1<<16]
	}
	return hosts
}

// applyWorkload lowers the workload section onto the simulation config
// (host map, workload factory, worm hosts; see Workload). A synthetic
// profile is only validated here, so lowering stays cheap; a trace
// file is read once to find its worm hosts.
func (s *Spec) applyWorkload(cfg *sim.Config) error {
	w := s.Workload
	if err := w.validate(); err != nil {
		return err
	}
	tick := w.TickMS
	if tick == 0 {
		tick = 1000
	}
	hostNodes := replayHostNodes(cfg)
	if len(hostNodes) == 0 {
		return fmt.Errorf("spec: trace replay needs host nodes; the topology has none")
	}

	var (
		hostMap   []int32
		wormHosts []int
		factory   func() (sim.Workload, error)
	)
	switch w.Kind {
	case "synthetic":
		gen := trace.GenConfig{
			Duration:        w.DurationMS,
			Seed:            w.Seed,
			NormalClients:   w.Normal,
			Servers:         w.Servers,
			P2PClients:      w.P2P,
			Infected:        w.Infected,
			BlasterFraction: w.BlasterFraction,
			WormOnset:       w.WormOnsetMS,
		}
		if gen.Duration == 0 {
			gen.Duration = int64(cfg.Ticks) * tick
		}
		if gen.Seed == 0 {
			gen.Seed = cfg.Seed
		}
		if gen.NumHosts() == 0 {
			scalePaperClasses(&gen, len(hostNodes))
		}
		if gen.NumHosts() > len(hostNodes) {
			return fmt.Errorf("spec: workload has %d trace hosts but the topology has %d host nodes",
				gen.NumHosts(), len(hostNodes))
		}
		// The config's checks are the only way building the stream can
		// fail (tick is positive), so a bad profile is a config error,
		// not one raised inside a replica.
		if err := gen.Validate(); err != nil {
			return fmt.Errorf("spec: workload: %w", err)
		}
		hostMap = make([]int32, gen.NumHosts())
		wormHosts = gen.HostsOfClass(trace.ClassInfected)
		factory = func() (sim.Workload, error) {
			return trace.NewSyntheticReplayer(gen, tick)
		}
	case "trace":
		var err error
		wormHosts, err = scanWormHosts(w.Path, len(hostNodes))
		if err != nil {
			return err
		}
		hostMap = make([]int32, len(hostNodes))
		path := w.Path
		factory = func() (sim.Workload, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			rp, err := trace.NewRecordReplayer(f, tick)
			if err != nil {
				f.Close()
				return nil, err
			}
			return &fileWorkload{Replayer: rp, f: f}, nil
		}
	}
	for i := range hostMap {
		hostMap[i] = int32(hostNodes[i])
	}
	cfg.Replay = &sim.ReplayConfig{
		NewWorkload: factory,
		Hosts:       hostMap,
		WormHosts:   wormHosts,
	}
	if len(wormHosts) > 0 {
		// The trace decides who is infected; random seeding is off. A
		// workload with no worm traffic keeps the scenario's random
		// seeding — a benign-only baseline for false-throttle rates.
		cfg.InitialInfected = 0
	}
	return nil
}

// scalePaperClasses fills in the default synthetic populations: the
// paper's 999/17/33/79 mix scaled down to the topology's host count,
// with at least one host per class.
func scalePaperClasses(gen *trace.GenConfig, hosts int) {
	if hosts < 4 {
		gen.NormalClients = hosts // too small for four classes: all normal
		return
	}
	scale := func(class int) int {
		n := hosts * class / paperClassTotal
		if n < 1 {
			n = 1
		}
		return n
	}
	gen.Servers = scale(trace.PaperServers)
	gen.P2PClients = scale(trace.PaperP2PClients)
	gen.Infected = scale(trace.PaperInfected)
	gen.NormalClients = hosts - gen.Servers - gen.P2PClients - gen.Infected
}

// scanWormHosts streams the trace once and returns the ascending set of
// in-range hosts that emit worm flows (trace.WormFlow) — the trace's
// infected population, which replaces random seed placement so the
// simulation agrees with the trace about who scans.
func scanWormHosts(path string, limit int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spec: workload trace: %w", err)
	}
	defer f.Close()
	seen := make(map[int]bool)
	err = trace.ReadFunc(f, func(rec *trace.Record) error {
		if h := trace.HostIndex(rec.Src); h >= 0 && h < limit && trace.WormFlow(rec) {
			seen[h] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("spec: workload trace %s: %w", path, err)
	}
	hosts := make([]int, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	return hosts, nil
}
