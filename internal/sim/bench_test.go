package sim

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/worm"
)

// Per-tick engine benchmarks over the three topology families, with and
// without rate limiting. Engine construction is excluded from the timed
// region (the routing table is prebuilt and shared, as MultiRun does),
// so ns/op ≈ cost of one full fixed-horizon run and the ns/tick metric
// is directly comparable across PRs. Baselines live in BENCH_engine.json
// at the repo root; compare with
//
//	go test ./internal/sim -run xxx -bench BenchmarkEngineTick -count 10 | benchstat old.txt -
func benchEngineTick(b *testing.B, cfg Config) {
	b.Helper()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	ns := newNetState(cfg.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := newEngine(cfg, ns)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		eng.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Ticks), "ns/tick")
}

func benchStar(b *testing.B) *topology.Graph {
	b.Helper()
	g, err := topology.Star(1000)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchPowerLaw(b *testing.B) (*topology.Graph, []topology.Role, []int) {
	b.Helper()
	g, err := topology.BarabasiAlbert(1000, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		b.Fatal(err)
	}
	return g, roles, topology.Subnets(g, roles)
}

func benchTwoLevel(b *testing.B) (*topology.Graph, []topology.Role, []int) {
	b.Helper()
	g, roles, subnet, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones: 4, EdgesPer: 5, HostsPerSubnet: 48,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g, roles, subnet
}

func BenchmarkEngineTick(b *testing.B) {
	b.Run("star/open", func(b *testing.B) {
		benchEngineTick(b, Config{
			Graph: benchStar(b), Beta: 0.8, ScansPerTick: 10,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 5, Ticks: 100, Seed: 11, MaxQueue: 50,
		})
	})
	b.Run("star/limited", func(b *testing.B) {
		benchEngineTick(b, Config{
			Graph: benchStar(b), Beta: 0.8, ScansPerTick: 10,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 5, Ticks: 100, Seed: 11, MaxQueue: 50,
			LimitedNodes: []int{0}, BaseRate: 5,
		})
	})
	b.Run("powerlaw/open", func(b *testing.B) {
		g, roles, subnet := benchPowerLaw(b)
		benchEngineTick(b, Config{
			Graph: g, Roles: roles, Subnet: subnet,
			Beta: 0.8, ScansPerTick: 10,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 5, Ticks: 100, Seed: 11, MaxQueue: 50,
		})
	})
	// The acceptance scenario: 1000-node power law, backbone links
	// rate limited to congestion (matches BenchmarkMultiRunParallel's
	// per-replica work at the repo root).
	b.Run("powerlaw/limited", func(b *testing.B) {
		g, roles, subnet := benchPowerLaw(b)
		benchEngineTick(b, Config{
			Graph: g, Roles: roles, Subnet: subnet,
			Beta: 0.8, ScansPerTick: 10,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 5, Ticks: 100, Seed: 11, MaxQueue: 50,
			LimitedNodes: DeployBackbone(roles), BaseRate: 0.4,
		})
	})
	b.Run("twolevel/open", func(b *testing.B) {
		g, roles, subnet := benchTwoLevel(b)
		benchEngineTick(b, Config{
			Graph: g, Roles: roles, Subnet: subnet,
			Beta: 0.8, ScansPerTick: 10,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 5, Ticks: 100, Seed: 11, MaxQueue: 50,
		})
	})
	b.Run("twolevel/limited", func(b *testing.B) {
		g, roles, subnet := benchTwoLevel(b)
		benchEngineTick(b, Config{
			Graph: g, Roles: roles, Subnet: subnet,
			Beta: 0.8, ScansPerTick: 10,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 5, Ticks: 100, Seed: 11, MaxQueue: 50,
			LimitedLinks: DeployEdgeUplinks(g, roles, subnet), BaseRate: 2,
		})
	})
}
