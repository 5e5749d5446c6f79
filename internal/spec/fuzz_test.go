package spec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// TestFuzzSmoke is the fuzz-smoke CI gate: a fixed-seed stream of
// random valid specs, each round-tripped through the canonical encoding
// and run under the engine's invariant audit (-check). The seed is
// fixed so the corpus — and any failure — is reproducible; widen it by
// raising the count locally.
func TestFuzzSmoke(t *testing.T) {
	const count = 25
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < count; i++ {
		s := Fuzz(rng)
		t.Run(fmt.Sprintf("%03d-%s", i, s.Name), func(t *testing.T) {
			canon, err := s.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(canon)
			if err != nil {
				t.Fatalf("fuzzed spec does not parse: %v\n%s", err, canon)
			}
			reCanon, err := parsed.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if string(reCanon) != string(canon) {
				t.Fatalf("fuzzed spec does not round-trip:\n%s", canon)
			}
			c, err := parsed.Compile(nil)
			if err != nil {
				t.Fatalf("fuzzed spec does not compile: %v\n%s", err, canon)
			}
			c.Options.Check = true // engine invariant audit on every tick
			if _, _, err := c.Run(context.Background()); err != nil {
				t.Errorf("fuzzed spec failed under -check: %v\n%s", err, canon)
			}
		})
	}
}

// TestSpectralThreshold pins the epidemic-threshold oracle of Draief,
// Ganesh & Massoulié: an SIR epidemic on a contact graph with adjacency
// spectral radius λ1 dies out when β·λ1/µ < 1 and takes off when it is
// well above 1. A uniformly scanning worm contacts every node alike, so
// its contact graph is complete — λ1(K_N) = N-1, measured here with the
// power-iteration SpectralRadius rather than assumed — and the per-edge
// infection rate is beta·scans/(N-1).
func TestSpectralThreshold(t *testing.T) {
	const n = 200
	contact := topology.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := contact.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	lambda1 := contact.SpectralRadius(0, 0)

	run := func(t *testing.T, beta float64, scans int, mu float64) float64 {
		t.Helper()
		s := &Spec{
			Format: Format, Version: Version,
			Name:     fmt.Sprintf("threshold-beta%.2f-mu%.2f", beta, mu),
			Topology: Topology{Kind: "star", Nodes: n},
			Worm:     Worm{Kind: "random", Beta: beta, ScansPerTick: scans},
			Immunize: &Immunize{StartTick: 1, Mu: mu},
			Ticks:    100, Seed: 5, MaxQueue: -1,
			Run: &Run{Check: true},
		}
		c, err := s.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalEverInfected()
	}

	t.Run("sub-critical", func(t *testing.T) {
		beta, scans, mu := 0.05, 1, 0.5
		r0 := beta * float64(scans) / float64(n-1) * lambda1 / mu
		if r0 >= 0.5 {
			t.Fatalf("oracle broken: sub-critical r0 = %v not well below 1", r0)
		}
		if ever := run(t, beta, scans, mu); ever >= 0.1 {
			t.Errorf("r0 = %.3f but the epidemic reached %.1f%% of nodes (want < 10%%)", r0, 100*ever)
		}
	})
	t.Run("super-critical", func(t *testing.T) {
		beta, scans, mu := 0.8, 4, 0.02
		r0 := beta * float64(scans) / float64(n-1) * lambda1 / mu
		if r0 <= 2 {
			t.Fatalf("oracle broken: super-critical r0 = %v not well above 1", r0)
		}
		if ever := run(t, beta, scans, mu); ever <= 0.5 {
			t.Errorf("r0 = %.1f but the epidemic reached only %.1f%% of nodes (want > 50%%)", r0, 100*ever)
		}
	})
}
