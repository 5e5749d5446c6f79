package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/worm"
)

// BenchmarkEngineTickScale measures the large-topology path: two-level
// AS graphs from 1k to 1M hosts under backbone rate limiting. Reported
// metrics: ns/tick (worm dynamics, engine construction excluded) and
// B/host (steady engine + routing footprint, measured once per size;
// the structural router keeps routing O(N + core²) at every size).
// Results are recorded in BENCH_engine.json. The full suite —
// including the 1M-host size — runs under `make bench-scale`; with
// -short (the `make bench-smoke` / CI path) sizes above 10k hosts are
// skipped.
func BenchmarkEngineTickScale(b *testing.B) {
	for _, hosts := range []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000} {
		if testing.Short() && hosts > 10_000 {
			continue
		}
		// The topology is built inside the size's own benchmark so a
		// -bench filter on one size never pays for the others'
		// construction.
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			g, roles := scaleTopology(b, hosts)
			heap := measureHeap(b, func() any { return BuildNet(g) })
			cfg := Config{
				Graph: g, Roles: roles, Net: heap.v.(*Net),
				Beta: 0.8, ScansPerTick: 10,
				Strategy:        worm.NewRandomFactory(),
				InitialInfected: max(hosts/100, 1), Ticks: 10, Seed: 11,
				MaxQueue:     50,
				LimitedNodes: DeployBackbone(roles), BaseRate: 0.4,
			}
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			resetPeakRSS()
			var engBytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var eng *Engine
				h := measureHeap(b, func() any {
					e, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					return e
				})
				eng, engBytes = h.v.(*Engine), h.bytes
				b.StartTimer()
				eng.Run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Ticks), "ns/tick")
			b.ReportMetric(float64(heap.bytes+engBytes)/float64(g.N()), "B/host")
			if kb := peakRSSKB(); kb > 0 {
				b.ReportMetric(float64(kb), "peakRSS-KB")
			}
		})
	}
}

// scaleTopology builds a two-level AS internet with roughly the given
// number of hosts (256 per stub AS; the AS core is ~1.6% of the total).
func scaleTopology(b *testing.B, hosts int) (*topology.Graph, []topology.Role) {
	b.Helper()
	const perStub = 256
	stubs := max(hosts/perStub, 4)
	ases := stubs * 20 / 19 // TransitFraction 0.05: transit ASes on top of the stubs
	g, roles, _, err := topology.TwoLevel(topology.TwoLevelConfig{
		ASes: ases, AttachM: 2, TransitFraction: 0.05, HostsPerStub: perStub,
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	return g, roles
}

// BenchmarkBuildNet measures the routing-construction layer: one
// BuildNet (link enumeration plus structural router) per iteration on
// the paper's 1000-node m=1 power-law graph and on 100k- and 1M-host
// two-level AS graphs. Reported metrics: ns/op and B/host, the heap the
// finished Net retains. Results are recorded in BENCH_engine.json
// (routing_build). With -short only the 1000-node graph runs.
func BenchmarkBuildNet(b *testing.B) {
	graphs := []struct {
		name  string
		hosts int // 0: the paper's power-law graph
	}{
		{"paper-ba1000", 0}, {"twolevel-100k", 100_000}, {"twolevel-1M", 1_000_000},
	}
	for _, gr := range graphs {
		if testing.Short() && gr.hosts > 10_000 {
			continue
		}
		gr := gr
		b.Run(gr.name, func(b *testing.B) {
			var g *topology.Graph
			if gr.hosts == 0 {
				var err error
				if g, err = topology.BarabasiAlbert(1000, 1, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			} else {
				g, _ = scaleTopology(b, gr.hosts)
			}
			heap := measureHeap(b, func() any { return BuildNet(g) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildNet(g)
			}
			b.ReportMetric(float64(heap.bytes)/float64(g.N()), "B/host")
		})
	}
}

// BenchmarkEngineTickQuiescent measures the sparse-phase fast path: a
// tick with no infected nodes and no queued packets must skip the
// generate sweep, the transmit scan, and the immunization draws, so its
// cost is O(active work), not O(N). The benchmark pins that claim — the
// quiescent tick must be at least 10x cheaper than an active tick of
// the same-size scale workload, or the coalescing has regressed.
func BenchmarkEngineTickQuiescent(b *testing.B) {
	hosts := 100_000
	if testing.Short() {
		hosts = 10_000
	}
	g, roles := scaleTopology(b, hosts)

	// Active reference: the scale-suite workload at the same size,
	// timed over its fixed 10-tick horizon.
	activeCfg := Config{
		Graph: g, Roles: roles, Net: BuildNet(g),
		Beta: 0.8, ScansPerTick: 10,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: max(hosts/100, 1), Ticks: 10, Seed: 11,
		MaxQueue:     50,
		LimitedNodes: DeployBackbone(roles), BaseRate: 0.4,
	}
	if err := activeCfg.Validate(); err != nil {
		b.Fatal(err)
	}
	activeEng, err := New(activeCfg)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	activeEng.Run()
	activeNs := float64(time.Since(start).Nanoseconds()) / float64(activeCfg.Ticks)

	// Quiescent engine: zero scan success and immediate full
	// immunization kill the epidemic inside the warm-up ticks; every
	// tick after that runs the coalesced fast path.
	quiCfg := activeCfg
	quiCfg.InitialInfected = 1
	quiCfg.Beta = 0
	quiCfg.Immunize = &Immunization{StartTick: 0, Mu: 1}
	quiCfg.Ticks = 4
	if err := quiCfg.Validate(); err != nil {
		b.Fatal(err)
	}
	eng, err := New(quiCfg)
	if err != nil {
		b.Fatal(err)
	}
	eng.Run()
	if eng.infected != 0 || len(eng.arena) != 0 {
		b.Fatalf("warm-up did not reach quiescence: %d infected, backlog %d", eng.infected, len(eng.arena))
	}
	// RunContext resumes from nextTick, so extending the horizon by b.N
	// runs exactly b.N quiescent ticks through the real tick loop.
	eng.cfg.Ticks += b.N
	b.ResetTimer()
	if _, err := eng.RunContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	quiNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(quiNs, "ns/tick")
	b.ReportMetric(activeNs/quiNs, "active/quiescent")
	if quiNs*10 > activeNs {
		b.Errorf("quiescent tick %.0f ns is not >=10x cheaper than active tick %.0f ns", quiNs, activeNs)
	}
}

// resetPeakRSS clears the kernel's peak-RSS watermark (VmHWM) for this
// process by writing "5" to /proc/self/clear_refs (Linux >= 4.0), so
// each bench leaf's peak reading reflects only its own sizes — without
// the reset, a 1M-host leaf would report the 10M leaf's residue. The
// watermark resets to the *current* resident set, so freed-but-retained
// heap pages (construction garbage of earlier leaves) are returned to
// the OS first. Silently a no-op where the interface does not exist.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB reads the process peak resident set (VmHWM) in KB from
// /proc/self/status; 0 where the interface does not exist.
func peakRSSKB() int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.Atoi(string(fields[0]))
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

type heapMeasure struct {
	v     any
	bytes uint64
}

// measureHeap runs build and returns its result together with the heap
// growth it caused (GC'd before and after, so short-lived construction
// garbage is excluded).
func measureHeap(b *testing.B, build func() any) heapMeasure {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := uint64(0)
	if after.HeapAlloc > before.HeapAlloc {
		bytes = after.HeapAlloc - before.HeapAlloc
	}
	return heapMeasure{v: v, bytes: bytes}
}
