package topology

import (
	"math"
	"math/rand"
	"testing"
)

// powerLawExponent estimates the tail exponent γ of the degree
// distribution P(k) ∝ k^{−γ} with the discrete Hill (maximum
// likelihood) estimator over degrees >= kmin:
//
//	γ ≈ 1 + n / Σ ln(k_i / (kmin − 1/2))
//
// It returns NaN when fewer than 10 nodes reach kmin. Measured AS
// graphs have γ ≈ 2.1; Barabási–Albert generates γ ≈ 3.
func powerLawExponent(g *Graph, kmin int) float64 {
	var sum float64
	n := 0
	for u := 0; u < g.N(); u++ {
		if k := g.Degree(u); k >= kmin {
			sum += math.Log(float64(k) / (float64(kmin) - 0.5))
			n++
		}
	}
	if n < 10 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/sum
}

// meanDegree returns the average node degree (0 for an empty graph).
func meanDegree(g *Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// assortativityByDegree returns the Pearson correlation of degrees
// across edges (Newman's assortativity coefficient r). AS-like graphs
// are disassortative (r < 0): hubs connect to leaves.
func assortativityByDegree(g *Graph) float64 {
	var sumProd, sumA, sumA2 float64
	for _, e := range g.Edges() {
		// Count each undirected edge in both orientations so the
		// statistic is symmetric (both ends then share one mean and
		// variance).
		for _, pair := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			a := float64(g.Degree(pair[0]))
			b := float64(g.Degree(pair[1]))
			sumProd += a * b
			sumA += a
			sumA2 += a * a
		}
	}
	n := float64(2 * g.M())
	mean := sumA / n
	variance := sumA2/n - mean*mean
	if variance == 0 {
		return math.NaN()
	}
	return (sumProd/n - mean*mean) / variance
}

func TestPowerLawExponentBA(t *testing.T) {
	g, err := BarabasiAlbert(3000, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	gamma := powerLawExponent(g, 4)
	// BA's theoretical exponent is 3; the Hill estimator on finite
	// samples lands nearby.
	if gamma < 2.2 || gamma > 4.0 {
		t.Errorf("BA exponent = %v, want ≈ 3", gamma)
	}
	// An ER graph's exponential tail yields a much larger "exponent".
	er, err := ErdosRenyi(3000, 4.0/3000, true, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	erGamma := powerLawExponent(er, 4)
	if !math.IsNaN(erGamma) && erGamma < gamma {
		t.Errorf("ER tail (%v) should not be heavier than BA (%v)", erGamma, gamma)
	}
}

// BA graphs trend disassortative like AS topologies.
func TestAssortativity(t *testing.T) {
	g, err := BarabasiAlbert(1000, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got := assortativityByDegree(g); got > 0 {
		t.Errorf("BA assortativity = %v, want <= 0 (AS-like)", got)
	}
}

// The claim behind the whole Section 5.4 substitution: the generated
// topology is AS-like — heavy-tailed degrees, short paths, and a core
// that the degree-ranked backbone captures.
func TestASLikeness(t *testing.T) {
	g, err := BarabasiAlbert(1000, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() < 30 {
		t.Errorf("max degree %d too small for a heavy tail", g.MaxDegree())
	}
	gamma := powerLawExponent(g, 3)
	if math.IsNaN(gamma) || gamma < 1.8 || gamma > 4.5 {
		t.Errorf("exponent %v outside the power-law band", gamma)
	}
}
