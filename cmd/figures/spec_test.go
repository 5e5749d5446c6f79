package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sweepSpec = `
format: wormsim-scenario
version: 1
name: beta sweep
topology:
  kind: star
  nodes: 30
worm:
  kind: random
  beta: 0.5
  scans_per_tick: 2
ticks: 20
seed: 3
run:
  runs: 1
grid:
  - path: worm.beta
    values: [0.3, 0.9]
`

// TestRunSpecFigure: a spec sweep becomes one figure with a labelled
// curve per grid point, written through the standard .dat/.metrics
// pipeline (spaces in the spec name sanitized out of the file stem).
func TestRunSpecFigure(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "sweep.yaml")
	if err := os.WriteFile(specPath, []byte(sweepSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{
		"-out", dir, "-ascii=false", "-spec", specPath,
	}); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	dat, err := os.ReadFile(filepath.Join(dir, "beta-sweep.dat"))
	if err != nil {
		t.Fatalf("missing .dat output: %v", err)
	}
	for _, label := range []string{"beta sweep[worm.beta=0.3]", "beta sweep[worm.beta=0.9]"} {
		if !strings.Contains(string(dat), "# "+label+"\n") {
			t.Errorf(".dat lacks the %q curve:\n%s", label, dat)
		}
	}
	met, err := os.ReadFile(filepath.Join(dir, "beta-sweep.metrics"))
	if err != nil {
		t.Fatalf("missing .metrics output: %v", err)
	}
	if !strings.Contains(string(met), "beta sweep[worm.beta=0.9].ever\t") {
		t.Errorf(".metrics lacks per-point summaries:\n%s", met)
	}
}

func TestRunSpecConflictsWithFigureIDs(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "sweep.yaml")
	if err := os.WriteFile(specPath, []byte(sweepSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	err := run(context.Background(), []string{"-spec", specPath, "-out", out, "fig4"})
	if err == nil || !strings.Contains(err.Error(), "cannot be combined with -spec") {
		t.Fatalf("err = %v, want a figure-ID conflict error", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rejected run left -out behind (stat: %v)", err)
	}
}
