package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func TestPathCoverageStar(t *testing.T) {
	// In an n-star, every leaf-to-leaf path transits the hub, and every
	// path out of the hub starts at a covered node when the hub is
	// covered. Pairs: n(n-1) ordered. Covered by {hub}: all pairs except
	// leaf->hub one-hop paths... leaf->hub: path [leaf, hub]; interior
	// nodes: none; source leaf not covered; destination hub is covered
	// but endpoints-as-destination don't count. So uncovered pairs are
	// exactly the (n-1) leaf->hub pairs.
	const n = 6
	g, err := topology.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(g)
	alpha, err := tab.PathCoverage([]int{topology.Hub})
	if err != nil {
		t.Fatalf("PathCoverage: %v", err)
	}
	total := float64(n * (n - 1))
	want := (total - float64(n-1)) / total
	if math.Abs(alpha-want) > 1e-12 {
		t.Errorf("alpha = %v, want %v", alpha, want)
	}
	// Covering a single leaf covers only that leaf's outgoing paths.
	alpha, err = tab.PathCoverage([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	want = float64(n-1) / total
	if math.Abs(alpha-want) > 1e-12 {
		t.Errorf("leaf alpha = %v, want %v", alpha, want)
	}
}

func TestPathCoverageBounds(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(g)
	if alpha, err := tab.PathCoverage(nil); err != nil || alpha != 0 {
		t.Errorf("empty cover: %v, %v", alpha, err)
	}
	all := make([]int, 8)
	for i := range all {
		all[i] = i
	}
	alpha, err := tab.PathCoverage(all)
	if err != nil || alpha != 1 {
		t.Errorf("full cover: %v, %v", alpha, err)
	}
	if _, err := tab.PathCoverage([]int{99}); err == nil {
		t.Error("out-of-range node should fail")
	}
}

func TestPathCoverageTrivialGraph(t *testing.T) {
	tab := Build(topology.New(1))
	alpha, err := tab.PathCoverage([]int{0})
	if err != nil || alpha != 0 {
		t.Errorf("single node: %v, %v", alpha, err)
	}
}

// The paper's premise: the degree-ranked backbone of a power-law graph
// covers nearly all paths — which is why backbone rate limiting acts
// like α ≈ 1 in Equation 6.
func TestBackboneCoversMostPaths(t *testing.T) {
	g, err := topology.BarabasiAlbert(500, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(g)
	alpha, err := tab.PathCoverage(topology.NodesWithRole(roles, topology.RoleBackbone))
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0.8 {
		t.Errorf("backbone path coverage = %v, want >= 0.8", alpha)
	}
	// Hosts cover almost nothing beyond their own outgoing paths.
	hosts := topology.NodesWithRole(roles, topology.RoleHost)
	hostAlpha, err := tab.PathCoverage(hosts[:len(hosts)/20]) // 5% of hosts
	if err != nil {
		t.Fatal(err)
	}
	if hostAlpha > 0.3 {
		t.Errorf("5%% host coverage = %v, want small", hostAlpha)
	}
	if hostAlpha >= alpha {
		t.Error("backbone must cover more than sparse hosts")
	}
}

func TestMeanPathLength(t *testing.T) {
	g, err := topology.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	tab := Build(g)
	// Star: hub<->leaf = 1 (8 ordered pairs), leaf<->leaf = 2 (12 pairs).
	want := (8.0*1 + 12.0*2) / 20.0
	if got := tab.MeanPathLength(); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean path length = %v, want %v", got, want)
	}
	if got := Build(topology.New(3)).MeanPathLength(); got != 0 {
		t.Errorf("edgeless mean path length = %v, want 0", got)
	}
}
