package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesFigureFiles(t *testing.T) {
	dir := t.TempDir()
	// Analytic figures only: fast and deterministic.
	err := run(context.Background(), []string{"-out", dir, "-quick", "-ascii=false", "fig1a", "fig10"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"fig1a.dat", "fig1a.metrics", "fig10.dat", "fig10.metrics"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing output %s: %v", want, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1a.metrics"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty metrics file")
	}
}

func TestRunASCII(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-out", dir, "-quick", "fig2"}); err != nil {
		t.Fatalf("run with ascii: %v", err)
	}
}

func TestRunParallelJobs(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{
		"-out", dir, "-quick", "-ascii=false", "-jobs", "3", "-runs", "2", "-progress",
		"fig1a", "fig2", "fig4", "fig10",
	})
	if err != nil {
		t.Fatalf("run -jobs 3: %v", err)
	}
	for _, want := range []string{"fig1a.dat", "fig2.dat", "fig4.dat", "fig10.dat"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing output %s: %v", want, err)
		}
	}
}

func TestRunTimeout(t *testing.T) {
	// A nanosecond budget cannot regenerate a simulation figure.
	err := run(context.Background(), []string{
		"-out", t.TempDir(), "-quick", "-timeout", "1ns", "fig4",
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-out", t.TempDir(), "-quick", "fig4"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-out", t.TempDir(), "figZZ"}); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := run(ctx, []string{"-bogus"}); err == nil {
		t.Error("bad flag should fail")
	}
	// A path through an existing regular file cannot be MkdirAll'd even
	// as root (ENOTDIR).
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-out", filepath.Join(blocker, "sub"), "fig1a"}); err == nil {
		t.Error("uncreatable output dir should fail")
	}
}

// TestRunParallelDeterministic guards cmd-level determinism: two
// regenerations of the same figure at different job counts must write
// identical .dat bytes.
func TestRunParallelDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ctx := context.Background()
	if err := run(ctx, []string{"-out", dirA, "-quick", "-ascii=false", "-runs", "3", "-jobs", "1", "fig4"}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-out", dirB, "-quick", "-ascii=false", "-runs", "3", "-jobs", "4", "fig4"}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dirA, "fig4.dat"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "fig4.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("fig4.dat differs between -jobs 1 and -jobs 4")
	}
}

func TestRunFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative runs", []string{"-runs", "-2"}, "-runs"},
		{"negative jobs", []string{"-jobs", "-1"}, "-jobs"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(context.Background(), append(tt.args, "fig1a"))
			if err == nil {
				t.Fatal("want a validation error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not name the flag %s", err, tt.want)
			}
		})
	}
}

// TestRunTraceFlagsNeedSpec: a trace-replay workload is part of the
// scenario — the paper figures define their own, and a spec sets one
// in its workload section — so figures has no -trace-replay or
// -trace-tick-ms flag: both are refused as undefined, and nothing is
// written.
func TestRunTraceFlagsNeedSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-replay", filepath.Join(t.TempDir(), "missing.trace")},
		{"-trace-tick-ms", "500"},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		err := run(context.Background(), append([]string{"-out", dir, "-quick", "-runs", "1", "-ascii=false"}, append(args, "fig4")...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want the flag refused as undefined", args, err)
		}
		if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
			t.Errorf("%v: the output directory exists (stat: %v); want nothing written", args, serr)
		}
	}
}

// TestRunCheckpointResume: a figure regenerated from its checkpoints
// writes byte-identical .dat output. -resume names the checkpoint
// directory to read (it may differ from the -checkpoint write root).
func TestRunCheckpointResume(t *testing.T) {
	dirA, dirB, ckpt := t.TempDir(), t.TempDir(), t.TempDir()
	ctx := context.Background()
	if err := run(ctx, []string{
		"-out", dirA, "-quick", "-ascii=false", "-runs", "2",
		"-checkpoint", ckpt, "fig4",
	}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	// The checkpoint tree is laid out per figure / batch / replica.
	if _, err := os.Stat(filepath.Join(ckpt, "fig4", "batch-01", "replica-000.ckpt")); err != nil {
		t.Fatalf("missing checkpoint: %v", err)
	}
	if err := run(ctx, []string{
		"-out", dirB, "-quick", "-ascii=false", "-runs", "2",
		"-resume", ckpt, "fig4",
	}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	a, err := os.ReadFile(filepath.Join(dirA, "fig4.dat"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "fig4.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("resumed fig4.dat differs from the original regeneration")
	}

	// Read and write roots compose: resume from the first tree while
	// naming a fresh write root (fully-resumed replicas cross no new
	// checkpoint interval, so the second tree stays empty — the point
	// is that distinct roots are accepted and the output still matches).
	dirC := t.TempDir()
	if err := run(ctx, []string{
		"-out", dirC, "-quick", "-ascii=false", "-runs", "2",
		"-resume", ckpt, "-checkpoint", t.TempDir(), "fig4",
	}); err != nil {
		t.Fatalf("resume-and-checkpoint run: %v", err)
	}
	c, err := os.ReadFile(filepath.Join(dirC, "fig4.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Error("resume-and-checkpoint fig4.dat differs from the original")
	}
}

func TestRunMetricsAndCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.jsonl")
	err := run(context.Background(), []string{
		"-out", dir, "-quick", "-ascii=false", "-runs", "2",
		"-metrics", path, "-check", "fig4", "fig10",
	})
	if err != nil {
		t.Fatalf("run -metrics -check: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Type     string           `json:"type"`
			ID       string           `json:"id"`
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not JSON: %v: %s", err, line)
		}
		if rec.Type != "figure" {
			t.Errorf("unexpected record type %q", rec.Type)
		}
		seen[rec.ID] = rec.Counters
	}
	// fig4 simulates (counters recorded); fig10 is analytic (none).
	c, ok := seen["fig4"]
	if !ok {
		t.Fatalf("no counters for fig4: %v", seen)
	}
	if c["ticks"] <= 0 || c["scan_attempts"] <= 0 {
		t.Errorf("fig4 counters empty: %v", c)
	}
	if _, ok := seen["fig10"]; ok {
		t.Error("analytic fig10 should record no simulation counters")
	}
}
