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

// TestFlagModeIsSpecMode: a flag invocation prints exactly what the
// hand-written spec it lowers to prints through -spec — localpref is
// worm kind "local", twolevel sizes its AS graph from -n, keep-going
// is on.
func TestFlagModeIsSpecMode(t *testing.T) {
	tests := []struct {
		name  string
		flags []string
		doc   string
	}{
		{"powerlaw localpref host immunize", []string{
			"-topology", "powerlaw", "-n", "150", "-worm", "localpref", "-localp", "0.7",
			"-defense", "host", "-fraction", "0.4", "-rate", "0.05",
			"-immunize-at", "0.15", "-mu", "0.2", "-ticks", "30", "-runs", "2",
		}, `
format: wormsim-scenario
version: 1
topology:
  kind: powerlaw
  nodes: 150
worm:
  kind: local
  beta: 0.8
  scans_per_tick: 1
  local_pref: 0.7
defenses:
  - kind: host
    fraction: 0.4
    rate: 0.05
immunize:
  start_level: 0.15
  mu: 0.2
ticks: 30
seed: 1
initial_infected: 1
run:
  runs: 2
  keep_going: true
`},
		{"twolevel backbone", []string{
			"-topology", "twolevel", "-n", "2000", "-defense", "backbone",
			"-rate", "0.4", "-ticks", "20", "-runs", "1",
		}, `
format: wormsim-scenario
version: 1
topology:
  kind: twolevel
  ases: 7
  attach_m: 2
  transit_fraction: 0.05
  hosts_per_stub: 256
worm:
  kind: random
  beta: 0.8
defenses:
  - kind: backbone
    rate: 0.4
ticks: 20
run:
  runs: 1
  keep_going: true
`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			flags := captureStdout(t, func() {
				if err := run(context.Background(), tt.flags); err != nil {
					t.Errorf("flag run: %v", err)
				}
			})
			path := writeSpec(t, tt.doc)
			specOut := captureStdout(t, func() {
				if err := run(context.Background(), []string{"-spec", path}); err != nil {
					t.Errorf("spec run: %v", err)
				}
			})
			if flags != specOut {
				t.Errorf("flag mode and its spec print different output:\n%s\nvs\n%s", flags, specOut)
			}
		})
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

// TestRunSpecInvalidPoint: a grid point is compiled when the sweep
// reaches it, so a sweep whose last point is invalid prints the points
// before it (keep-going) and fails naming the bad one; a single invalid
// point writes no -metrics file, since no replica ever ran.
func TestRunSpecInvalidPoint(t *testing.T) {
	doc := strings.Replace(sweepSpec, "[0.3, 0.9]", "[0.3, 0.9, 2.5]", 1)
	path := writeSpec(t, strings.Replace(doc, "  runs: 1\n", "  runs: 1\n  keep_going: true\n", 1))
	var err error
	out := captureStdout(t, func() { err = run(context.Background(), []string{"-spec", path}) })
	if err == nil || !strings.Contains(err.Error(), "1 of 3 sweep points degraded") || !strings.Contains(err.Error(), "cli-sweep[worm.beta=2.5]") {
		t.Errorf("err = %v, want the third point reported as failed", err)
	}
	for _, point := range []string{"cli-sweep[worm.beta=0.3]\t", "cli-sweep[worm.beta=0.9]\t"} {
		if !strings.Contains(out, point) {
			t.Errorf("no summary line for %s:\n%s", point, out)
		}
	}

	bad := writeSpec(t, strings.Replace(singleSpec, "beta: 0.8", "beta: 2.5", 1))
	metrics := filepath.Join(t.TempDir(), "m.jsonl")
	if err := run(context.Background(), []string{"-spec", bad, "-metrics", metrics}); err == nil {
		t.Fatal("an invalid spec ran")
	}
	if _, err := os.Stat(metrics); err == nil {
		t.Error("an invalid spec wrote a metrics file")
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
