package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// replaySpec is a complete trace-replay scenario: an enterprise
// topology with Williamson throttles on its hosts driven by the
// synthetic four-class traffic profile.
const replaySpec = `{
  "format": "wormsim-scenario",
  "version": 1,
  "name": "replay-smoke",
  "topology": {
    "kind": "enterprise",
    "backbones": 1,
    "edges_per_backbone": 2,
    "hosts_per_subnet": 12
  },
  "worm": {
    "kind": "random",
    "beta": 0.8
  },
  "defenses": [
    {
      "kind": "throttle",
      "working_set": 4,
      "period": 1,
      "hosts": 20
    }
  ],
  "ticks": 60,
  "seed": 5,
  "workload": {
    "kind": "synthetic",
    "normal": 12,
    "servers": 2,
    "p2p": 3,
    "infected": 3,
    "blaster_fraction": 0.5
  }
}
`

// parseCounterFooters extracts the counters footers printSeries
// appends ("# scans=... " and "# benign=...") into one map.
func parseCounterFooters(t *testing.T, out string) map[string]int64 {
	t.Helper()
	counters := map[string]int64{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# ") || !strings.Contains(line, "=") {
			continue
		}
		for _, field := range strings.Fields(line[2:]) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			var n int64
			if _, err := fmt.Sscanf(v, "%d", &n); err == nil {
				counters[k] = n
			}
		}
	}
	return counters
}

// TestRunTraceReplaySmoke is the CI replay smoke: replay the synthetic
// workload under the invariant audit and check the collateral counters
// balance — benign throttles bounded by benign contacts, worm
// throttles by scan attempts, and emitted packets by the contacts the
// limiters let through (external destinations spend limiter credit but
// leave the simulated edge, so the bound is an inequality).
func TestRunTraceReplaySmoke(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(specPath, []byte(replaySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "replay.jsonl")
	out := captureStdout(t, func() {
		err := run(context.Background(), []string{
			"-spec", specPath, "-check", "-metrics", metrics,
		})
		if err != nil {
			t.Errorf("run -spec replay: %v", err)
		}
	})
	c := parseCounterFooters(t, out)
	if c["scans"] == 0 || c["benign"] == 0 {
		t.Fatalf("dead workload: counters %v\noutput:\n%s", c, out)
	}
	if c["benign_throttled"] > c["benign"] {
		t.Errorf("benign_throttled %d > benign %d", c["benign_throttled"], c["benign"])
	}
	if c["throttled"] > c["scans"] {
		t.Errorf("throttled %d > scans %d", c["throttled"], c["scans"])
	}
	admitted := (c["scans"] - c["throttled"]) + (c["benign"] - c["benign_throttled"])
	if c["generated"] > admitted {
		t.Errorf("generated %d packets from %d admitted contacts", c["generated"], admitted)
	}
	if c["benign_throttled"] == 0 {
		t.Error("throttles under worm load falsely throttled no benign traffic; collateral signal dead")
	}
	if !strings.Contains(out, "collateral=") {
		t.Error("counters footer missing the collateral rate")
	}
}

// TestRunTraceReplayFlags: the flag-mode path — -trace-replay with a
// generated trace file on a defenseless topology replays end to end,
// and the trace's worm hosts seed the epidemic.
func TestRunTraceReplayFlags(t *testing.T) {
	gen := trace.GenConfig{
		Duration: 30 * trace.Second, Seed: 11,
		NormalClients: 12, Servers: 2, P2PClients: 3, Infected: 3,
		BlasterFraction: 0.5,
	}
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-topology", "enterprise", "-n", "240", "-ticks", "30", "-runs", "1",
		"-trace-replay", path, "-check",
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("run -trace-replay: %v", err)
	}
	// Synthetic workload via flags, too: default populations scale the
	// paper's class mix to the topology's host count.
	args = []string{
		"-topology", "enterprise", "-n", "240", "-ticks", "30", "-runs", "1",
		"-trace-replay", "synthetic", "-trace-tick-ms", "500", "-check",
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("run -trace-replay synthetic: %v", err)
	}
}

// TestWorkloadFlagBinding: both -trace-replay forms parse — "synthetic"
// selects the generator's profile, anything else names a trace file —
// and -trace-tick-ms composes with either, in any order.
func TestWorkloadFlagBinding(t *testing.T) {
	tests := []struct {
		args []string
		want spec.Workload
	}{
		{[]string{"-trace-replay", "synthetic", "-trace-tick-ms", "500"}, spec.Workload{Kind: "synthetic", TickMS: 500}},
		{[]string{"-trace-tick-ms", "500", "-trace-replay", "synthetic"}, spec.Workload{Kind: "synthetic", TickMS: 500}},
		{[]string{"-trace-replay", "trace.log"}, spec.Workload{Kind: "trace", Path: "trace.log"}},
	}
	for _, tt := range tests {
		var wl workloadFlags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		wl.bind(fs)
		if err := fs.Parse(tt.args); err != nil {
			t.Fatal(err)
		}
		got := wl.apply(&spec.Spec{}).Workload
		if got == nil || *got != tt.want {
			t.Errorf("%v parsed to %+v, want %+v", tt.args, got, tt.want)
		}
	}
	var none workloadFlags
	if s := (&spec.Spec{}); none.apply(s) != s {
		t.Error("with no workload flag set, apply changed the spec")
	}
}

// TestWorkloadFlagsOverrideSpec: with -spec, the workload flags
// override only the fields they name — a tick override keeps the
// spec's traffic profile — without mutating the parsed spec, and the
// run prints exactly what the spec with that tick written in prints.
func TestWorkloadFlagsOverrideSpec(t *testing.T) {
	base, err := spec.Parse([]byte(replaySpec))
	if err != nil {
		t.Fatal(err)
	}
	tick := int64(250)
	got := workloadFlags{tickMS: &tick}.apply(base).Workload
	want := spec.Workload{Kind: "synthetic", TickMS: 250, Normal: 12, Servers: 2, P2P: 3, Infected: 3, BlasterFraction: 0.5}
	if *got != want {
		t.Errorf("merged workload %+v, want %+v", *got, want)
	}
	if base.Workload.TickMS != 0 {
		t.Errorf("the override mutated the parsed spec: tick_ms = %d", base.Workload.TickMS)
	}

	overridden := captureStdout(t, func() {
		if err := run(context.Background(), []string{"-spec", writeSpec(t, replaySpec), "-trace-tick-ms", "500"}); err != nil {
			t.Errorf("override run: %v", err)
		}
	})
	written := strings.Replace(replaySpec, `"kind": "synthetic",`, `"kind": "synthetic",
    "tick_ms": 500,`, 1)
	direct := captureStdout(t, func() {
		if err := run(context.Background(), []string{"-spec", writeSpec(t, written)}); err != nil {
			t.Errorf("spec run: %v", err)
		}
	})
	if overridden != direct {
		t.Errorf("-trace-tick-ms 500 over the spec prints\n%s\nthe spec with tick_ms 500 prints\n%s", overridden, direct)
	}
	plain := captureStdout(t, func() {
		if err := run(context.Background(), []string{"-spec", writeSpec(t, replaySpec)}); err != nil {
			t.Errorf("spec run: %v", err)
		}
	})
	if plain == direct {
		t.Error("the tick mapping changed nothing; the comparison above proves nothing")
	}
}
