package sim

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/worm"
)

// TestSharedNetByteIdentical: batches run over a caller-supplied Net
// must produce exactly the series of batches that build their own
// routing state — the Net is a pure construction-cost optimization.
func TestSharedNetByteIdentical(t *testing.T) {
	g, err := topology.BarabasiAlbert(150, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Beta: 0.7, Strategy: worm.NewRandomFactory(),
		InitialInfected: 1, Ticks: 40, Seed: 9,
	}
	want, _, err := MultiRun(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := BuildNet(g)
	for _, beta := range []float64{0.7, 0.3} {
		c := cfg
		c.Beta = beta
		c.Net = net
		got, _, err := MultiRun(context.Background(), c, 3)
		if err != nil {
			t.Fatalf("beta %v with shared net: %v", beta, err)
		}
		if beta == 0.7 && !reflect.DeepEqual(got, want) {
			t.Error("shared-net batch diverged from the self-built batch")
		}
	}
}

// TestNetGraphMismatchRejected: a Net built from a different graph
// than Config.Graph is a config error, not a silent misroute.
func TestNetGraphMismatchRejected(t *testing.T) {
	g1, err := topology.Star(30)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := topology.Star(30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g1, Net: BuildNet(g2), Beta: 0.5,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 1, Ticks: 10, Seed: 1,
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Errorf("mismatched Net should fail validation, got %v", err)
	}
	if _, _, err := MultiRun(context.Background(), cfg, 1); err == nil {
		t.Error("MultiRun with mismatched Net should fail")
	}
}
