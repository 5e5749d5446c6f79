package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSpec drops a spec document into a temp file and returns its path.
func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const singleSpec = `
format: wormsim-scenario
version: 1
name: cli-single
topology:
  kind: star
  nodes: 30
worm:
  kind: random
  beta: 0.8
  scans_per_tick: 2
ticks: 20
seed: 3
run:
  runs: 2
`

const sweepSpec = `
format: wormsim-scenario
version: 1
name: cli-sweep
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

func TestRunSpecSingleSeries(t *testing.T) {
	path := writeSpec(t, singleSpec)
	out := captureStdout(t, func() {
		// -check overlays the spec's run section: the audit must pass.
		if err := run(context.Background(), []string{"-spec", path, "-check"}); err != nil {
			t.Errorf("run -spec: %v", err)
		}
	})
	if !strings.HasPrefix(out, "# tick\tinfected\tever\timmunized\tbacklog\n") {
		t.Errorf("missing series header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var dataLines int
	for _, l := range lines {
		if !strings.HasPrefix(l, "#") {
			dataLines++
		}
	}
	if dataLines != 20 {
		t.Errorf("got %d data lines, want 20 (one per tick)", dataLines)
	}
	if !strings.Contains(out, "# t50=") {
		t.Errorf("missing summary footer:\n%s", out)
	}
}

func TestRunSpecSweepSummary(t *testing.T) {
	path := writeSpec(t, sweepSpec)
	out := captureStdout(t, func() {
		if err := run(context.Background(), []string{"-spec", path}); err != nil {
			t.Errorf("run -spec sweep: %v", err)
		}
	})
	// Both grid points vary only the worm, so one topology build serves
	// the whole sweep.
	if !strings.Contains(out, "# sweep: 2 points, 1 topology builds") {
		t.Errorf("missing sweep summary:\n%s", out)
	}
	for _, point := range []string{"cli-sweep[worm.beta=0.3]", "cli-sweep[worm.beta=0.9]"} {
		if !strings.Contains(out, point) {
			t.Errorf("no summary line for %s:\n%s", point, out)
		}
	}
}

func TestRunSpecConflicts(t *testing.T) {
	path := writeSpec(t, singleSpec)
	sweep := writeSpec(t, sweepSpec)
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"scenario flag", []string{"-spec", path, "-beta", "0.5"}, "cannot be combined with -spec"},
		{"specfuzz", []string{"-spec", path, "-specfuzz", "3"}, "mutually exclusive"},
		{"negative specfuzz", []string{"-specfuzz", "-1"}, "-specfuzz"},
		{"metrics on a sweep", []string{"-spec", sweep, "-metrics", filepath.Join(t.TempDir(), "m.jsonl")}, "single-scenario"},
		{"missing file", []string{"-spec", filepath.Join(t.TempDir(), "nope.yaml")}, "no such file"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(context.Background(), tt.args)
			if err == nil {
				t.Fatal("want an error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestRunSpecMalformed(t *testing.T) {
	path := writeSpec(t, "format: not-a-spec\nversion: 1\n")
	err := run(context.Background(), []string{"-spec", path})
	if err == nil || !strings.Contains(err.Error(), "unrecognized format") {
		t.Fatalf("err = %v, want an unrecognized-format error", err)
	}
}

// TestRunWarningsOnStderr: scenario advisories surface on stderr — a
// spec-built scenario tracking subnets on a star warns — and a
// flag-built scenario, which has no subnet-tracking flag, prints none.
func TestRunWarningsOnStderr(t *testing.T) {
	t.Run("spec", func(t *testing.T) {
		path := writeSpec(t, `
format: wormsim-scenario
version: 1
name: star-subnets
topology:
  kind: star
  nodes: 30
worm:
  kind: random
  beta: 0.5
ticks: 10
seed: 1
observe:
  subnets: true
run:
  runs: 1
`)
		errOut := captureStderr(t, func() {
			captureStdout(t, func() {
				if err := run(context.Background(), []string{"-spec", path}); err != nil {
					t.Errorf("run: %v", err)
				}
			})
		})
		if !strings.Contains(errOut, "wormsim: warning:") || !strings.Contains(errOut, "track-subnets on a star") {
			t.Errorf("no track-subnets-on-star warning on stderr:\n%s", errOut)
		}
	})
	t.Run("flags", func(t *testing.T) {
		errOut := captureStderr(t, func() {
			captureStdout(t, func() {
				err := run(context.Background(), []string{
					"-topology", "star", "-n", "40", "-ticks", "10", "-runs", "1",
				})
				if err != nil {
					t.Errorf("run: %v", err)
				}
			})
		})
		if strings.Contains(errOut, "warning:") {
			t.Errorf("flag-built star run printed a warning:\n%s", errOut)
		}
	})
}

func TestRunSpecFuzzCLI(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(context.Background(), []string{"-specfuzz", "2", "-seed", "1"}); err != nil {
			t.Errorf("run -specfuzz: %v", err)
		}
	})
	if !strings.Contains(out, "# specfuzz: 2 samples clean under -check (seed 1)") {
		t.Errorf("missing specfuzz summary:\n%s", out)
	}
	if strings.Count(out, " ok  ever=") != 2 {
		t.Errorf("want one ok line per sample:\n%s", out)
	}
}

func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stderr = old
	return <-done
}
