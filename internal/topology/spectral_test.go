package topology

import (
	"math"
	"math/rand"
	"testing"
)

// complete builds K_n, whose adjacency spectrum is known exactly:
// λ1 = n-1.
func complete(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestSpectralRadiusKnownGraphs(t *testing.T) {
	// K_n: λ1 = n-1.
	for _, n := range []int{2, 5, 30} {
		got := complete(t, n).SpectralRadius(0, 0)
		if want := float64(n - 1); math.Abs(got-want) > 1e-6 {
			t.Errorf("K_%d: λ1 = %v, want %v", n, got, want)
		}
	}

	// Star_n: λ1 = sqrt(n-1).
	for _, n := range []int{5, 50} {
		g, err := Star(n)
		if err != nil {
			t.Fatal(err)
		}
		got := g.SpectralRadius(0, 0)
		if want := math.Sqrt(float64(n - 1)); math.Abs(got-want) > 1e-6 {
			t.Errorf("Star_%d: λ1 = %v, want %v", n, got, want)
		}
	}

	// Path_3 (0-1-2): λ1 = sqrt(2).
	p := New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := p.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p.SpectralRadius(0, 0), math.Sqrt2; math.Abs(got-want) > 1e-6 {
		t.Errorf("P_3: λ1 = %v, want %v", got, want)
	}
}

func TestSpectralRadiusBounds(t *testing.T) {
	// For any graph, meanDegree <= λ1 <= maxDegree.
	g, err := BarabasiAlbert(300, 2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	l := g.SpectralRadius(0, 0)
	if l < meanDegree(g)-1e-9 || l > float64(g.MaxDegree())+1e-9 {
		t.Errorf("λ1 = %v outside [mean degree %v, max degree %d]", l, meanDegree(g), g.MaxDegree())
	}
}

func TestSpectralRadiusDegenerate(t *testing.T) {
	if got := New(0).SpectralRadius(0, 0); got != 0 {
		t.Errorf("empty graph: λ1 = %v, want 0", got)
	}
	if got := New(4).SpectralRadius(0, 0); got != 0 {
		t.Errorf("edgeless graph: λ1 = %v, want 0", got)
	}
}
