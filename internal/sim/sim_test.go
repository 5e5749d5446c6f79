package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/worm"
)

func baseConfig(t *testing.T, n int) Config {
	t.Helper()
	g, err := topology.BarabasiAlbert(n, 2, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		t.Fatalf("AssignRoles: %v", err)
	}
	return Config{
		Graph:           g,
		Roles:           roles,
		Beta:            0.8,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 3,
		Ticks:           60,
		Seed:            1,
	}
}

func TestConfigValidate(t *testing.T) {
	ok := baseConfig(t, 100)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mod  func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"nil strategy", func(c *Config) { c.Strategy = nil }},
		{"beta out of range", func(c *Config) { c.Beta = 1.5 }},
		{"no initial infections", func(c *Config) { c.InitialInfected = 0 }},
		{"too many initial", func(c *Config) { c.InitialInfected = 1000 }},
		{"no ticks", func(c *Config) { c.Ticks = 0 }},
		{"roles mismatch", func(c *Config) { c.Roles = make([]topology.Role, 3) }},
		{"subnet mismatch", func(c *Config) { c.Subnet = make([]int, 3) }},
		{"negative base rate", func(c *Config) { c.BaseRate = -1 }},
		{"limited node out of range", func(c *Config) { c.LimitedNodes = []int{-1} }},
		{"node cap out of range", func(c *Config) { c.NodeCaps = map[int]int{500: 1} }},
		{"negative node cap", func(c *Config) { c.NodeCaps = map[int]int{1: -1} }},
		{"bad immunization mu", func(c *Config) { c.Immunize = &Immunization{StartTick: 1, Mu: 2} }},
		{"immunization no trigger", func(c *Config) { c.Immunize = &Immunization{StartTick: -1, Mu: 0.1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := baseConfig(t, 100)
			tt.mod(&c)
			if err := c.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestNewRejectsDisconnected(t *testing.T) {
	g := topology.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph:           g,
		Beta:            0.5,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 1,
		Ticks:           5,
	}
	if _, err := New(cfg); err == nil {
		t.Error("disconnected graph should be rejected")
	}
}

func TestEpidemicSaturates(t *testing.T) {
	cfg := baseConfig(t, 100)
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if got := res.FinalInfected(); got < 0.99 {
		t.Errorf("final infected = %v, want saturation", got)
	}
	if got := res.FinalEverInfected(); got < 0.99 {
		t.Errorf("final ever infected = %v, want saturation", got)
	}
	// The curve is non-decreasing without immunization.
	for i := 1; i < len(res.Infected); i++ {
		if res.Infected[i] < res.Infected[i-1]-1e-12 {
			t.Fatalf("infected fraction decreased at tick %d", i)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := baseConfig(t, 100)
	run := func() *Result {
		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return eng.Run()
	}
	a, b := run(), run()
	for i := range a.Infected {
		if a.Infected[i] != b.Infected[i] || a.Backlog[i] != b.Backlog[i] {
			t.Fatalf("runs with identical seeds diverge at tick %d", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 2
	eng, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	c := eng.Run()
	same := true
	for i := range a.Infected {
		if a.Infected[i] != c.Infected[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestInvariants(t *testing.T) {
	cfg := baseConfig(t, 100)
	cfg.Immunize = &Immunization{StartTick: 5, Mu: 0.05}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	for i := range res.Infected {
		// Currently infected + immunized <= 1, ever >= infected, all in [0,1].
		if res.Infected[i] < 0 || res.Infected[i] > 1 ||
			res.EverInfected[i] < res.Infected[i]-1e-12 ||
			res.Immunized[i] < 0 ||
			res.Infected[i]+res.Immunized[i] > 1+1e-12 {
			t.Fatalf("invariant violated at tick %d: I=%v E=%v R=%v",
				i, res.Infected[i], res.EverInfected[i], res.Immunized[i])
		}
		if i > 0 && res.EverInfected[i] < res.EverInfected[i-1]-1e-12 {
			t.Fatalf("ever-infected decreased at tick %d", i)
		}
		if i > 0 && res.Immunized[i] < res.Immunized[i-1]-1e-12 {
			t.Fatalf("immunized decreased at tick %d", i)
		}
	}
}

func TestImmunizationStopsEpidemic(t *testing.T) {
	cfg := baseConfig(t, 100)
	cfg.Ticks = 200
	cfg.Immunize = &Immunization{StartTick: -1, StartLevel: 0.2, Mu: 0.2}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if got := res.FinalInfected(); got > 0.01 {
		t.Errorf("final infected = %v, want epidemic extinguished", got)
	}
	if got := res.FinalEverInfected(); got >= 1 {
		t.Errorf("ever infected = %v, want < 1 (immunization saved some)", got)
	}
}

func TestHubNodeCapSlowsStar(t *testing.T) {
	g, err := topology.Star(100)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(nodeCap map[int]int) *Result {
		cfg := Config{
			Graph:           g,
			Beta:            0.8,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 1,
			Ticks:           300,
			Seed:            7,
			NodeCaps:        nodeCap,
		}
		res, _, err := MultiRun(context.Background(), cfg, 5)
		if err != nil {
			t.Fatalf("MultiRun: %v", err)
		}
		return res
	}
	free := mk(nil)
	capped := mk(map[int]int{topology.Hub: 2})
	tFree := free.TimeToLevel(0.6)
	tCapped := capped.TimeToLevel(0.6)
	if math.IsNaN(tFree) || math.IsNaN(tCapped) {
		t.Fatalf("levels not reached: free=%v capped=%v", tFree, tCapped)
	}
	if tCapped < 2*tFree {
		t.Errorf("hub cap should slow >=2x: free %v vs capped %v", tFree, tCapped)
	}
}

func TestSmallHostDeploymentNegligible(t *testing.T) {
	cfg := baseConfig(t, 150)
	cfg.Ticks = 40
	noRL, _, err := MultiRun(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := DeployHostFraction(cfg.Graph, cfg.Roles, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg5 := cfg
	cfg5.LimitedNodes = nodes
	host5, _, err := MultiRun(context.Background(), cfg5, 5)
	if err != nil {
		t.Fatal(err)
	}
	t0, t5 := noRL.TimeToLevel(0.5), host5.TimeToLevel(0.5)
	if math.IsNaN(t0) || math.IsNaN(t5) {
		t.Fatalf("levels not reached: %v %v", t0, t5)
	}
	if t5 > t0*1.5 {
		t.Errorf("5%% host RL should be negligible: %v vs %v", t5, t0)
	}
}

func TestHostsOnlyProtectsRouters(t *testing.T) {
	cfg := baseConfig(t, 100)
	cfg.HostsOnly = true
	cfg.InitialInfected = 2
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if got := res.FinalInfected(); got < 0.99 {
		t.Errorf("hosts should still saturate, got %v", got)
	}
	for u := 0; u < cfg.Graph.N(); u++ {
		if cfg.Roles[u] != topology.RoleHost && eng.stateOf(u) == stateInfected {
			t.Fatalf("router %d was infected", u)
		}
	}
}

func TestDropPolicyNoBacklog(t *testing.T) {
	cfg := baseConfig(t, 150)
	cfg.LimitedNodes = DeployBackbone(cfg.Roles)
	cfg.BaseRate = 1
	cfg.Policy = PolicyDrop
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	// With dropping, queues are cleared every tick: backlog only holds
	// packets enqueued this tick that exceeded nothing — i.e. packets
	// enqueued during deliver. It must stay small relative to queueing.
	cfgQ := cfg
	cfgQ.Policy = PolicyQueue
	engQ, err := New(cfgQ)
	if err != nil {
		t.Fatal(err)
	}
	resQ := engQ.Run()
	maxDrop, maxQueue := 0, 0
	for i := range res.Backlog {
		if res.Backlog[i] > maxDrop {
			maxDrop = res.Backlog[i]
		}
		if resQ.Backlog[i] > maxQueue {
			maxQueue = resQ.Backlog[i]
		}
	}
	if maxDrop >= maxQueue {
		t.Errorf("drop backlog %d should be below queue backlog %d", maxDrop, maxQueue)
	}
}

func TestLocalPreferentialStrategyInSim(t *testing.T) {
	cfg := baseConfig(t, 150)
	f, err := worm.NewLocalPreferentialFactory(0.8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = f
	cfg.Subnet = topology.Subnets(cfg.Graph, cfg.Roles)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if got := res.FinalInfected(); got < 0.95 {
		t.Errorf("local-pref epidemic should still saturate, got %v", got)
	}
}

func TestMultiRunAveragesAndErrors(t *testing.T) {
	cfg := baseConfig(t, 60)
	cfg.Ticks = 30
	res, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatalf("MultiRun: %v", err)
	}
	if len(res.Infected) != 30 {
		t.Fatalf("series length = %d", len(res.Infected))
	}
	if _, _, err := MultiRun(context.Background(), cfg, 0); err == nil {
		t.Error("runs=0 should fail")
	}
	bad := cfg
	bad.Ticks = 0
	if _, _, err := MultiRun(context.Background(), bad, 2); err == nil {
		t.Error("invalid config should propagate")
	}
}

func TestDeployHelpers(t *testing.T) {
	cfg := baseConfig(t, 200)
	hosts, err := DeployHostFraction(cfg.Graph, cfg.Roles, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	nHosts := len(topology.NodesWithRole(cfg.Roles, topology.RoleHost))
	if want := int(0.3 * float64(nHosts)); len(hosts) != want {
		t.Errorf("host deployment = %d, want %d", len(hosts), want)
	}
	for _, u := range hosts {
		if cfg.Roles[u] != topology.RoleHost {
			t.Fatalf("node %d in host deployment is %v", u, cfg.Roles[u])
		}
	}
	if _, err := DeployHostFraction(cfg.Graph, cfg.Roles, 1.2, 1); err == nil {
		t.Error("frac > 1 should fail")
	}
	// nil roles: all nodes are candidates.
	all, err := DeployHostFraction(cfg.Graph, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != cfg.Graph.N() {
		t.Errorf("nil-roles full deployment = %d, want %d", len(all), cfg.Graph.N())
	}
	if len(DeployEdgeRouters(cfg.Roles)) == 0 || len(DeployBackbone(cfg.Roles)) == 0 {
		t.Error("router deployments should be non-empty")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Infected: []float64{0.1, 0.4, 0.9}}
	if got := r.TimeToLevel(0.4); got != 2 {
		t.Errorf("TimeToLevel(0.4) = %v, want 2", got)
	}
	if !math.IsNaN(r.TimeToLevel(0.95)) {
		t.Error("unreached level should be NaN")
	}
	empty := &Result{}
	if !math.IsNaN(empty.FinalInfected()) || !math.IsNaN(empty.FinalEverInfected()) {
		t.Error("empty result finals should be NaN")
	}
}
