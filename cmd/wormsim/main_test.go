package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunScenarios(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"star hub", []string{
			"-topology", "star", "-n", "60", "-defense", "hub", "-hubcap", "2",
			"-ticks", "30", "-runs", "2",
		}},
		{"powerlaw backbone", []string{
			"-topology", "powerlaw", "-n", "120", "-defense", "backbone",
			"-rate", "0.4", "-scans", "5", "-ticks", "30", "-runs", "2",
		}},
		{"enterprise localpref host RL", []string{
			"-topology", "enterprise", "-n", "100", "-worm", "localpref",
			"-defense", "host", "-fraction", "0.3", "-rate", "0.01",
			"-ticks", "30", "-runs", "2",
		}},
		{"sequential with immunization", []string{
			"-topology", "powerlaw", "-n", "100", "-worm", "sequential",
			"-immunize-at", "0.2", "-mu", "0.1", "-ticks", "40", "-runs", "2",
		}},
		{"edge defense", []string{
			"-topology", "powerlaw", "-n", "120", "-defense", "edge",
			"-rate", "0.2", "-ticks", "30", "-runs", "2",
		}},
		{"probe-first welchia", []string{
			"-topology", "powerlaw", "-n", "100", "-probe",
			"-ticks", "40", "-runs", "2",
		}},
		{"twolevel backbone", []string{
			"-topology", "twolevel", "-n", "2000", "-defense", "backbone",
			"-rate", "0.4", "-ticks", "20", "-runs", "1",
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(context.Background(), tt.args); err != nil {
				t.Errorf("run: %v", err)
			}
		})
	}
}

func TestRunParallelAndProgress(t *testing.T) {
	args := []string{
		"-topology", "powerlaw", "-n", "100", "-ticks", "30", "-runs", "4",
		"-jobs", "2", "-progress",
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("run -jobs 2: %v", err)
	}
}

func TestRunTimeout(t *testing.T) {
	args := []string{
		"-topology", "powerlaw", "-n", "200", "-ticks", "100000", "-runs", "4",
		"-timeout", "1ns",
	}
	err := run(context.Background(), args)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	args := []string{"-topology", "powerlaw", "-n", "100", "-ticks", "30", "-runs", "2"}
	if err := run(ctx, args); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown topology", []string{"-topology", "torus"}},
		{"unknown worm", []string{"-worm", "sasser"}},
		{"unknown defense", []string{"-defense", "prayer"}},
		{"bad flag", []string{"-bogus"}},
		{"hub on powerlaw", []string{"-topology", "powerlaw", "-n", "60", "-defense", "hub", "-ticks", "10", "-runs", "1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(context.Background(), tt.args); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"zero ticks", []string{"-ticks", "0"}, "-ticks"},
		{"negative ticks", []string{"-ticks", "-5"}, "-ticks"},
		{"zero population", []string{"-n", "0"}, "-n"},
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative jobs", []string{"-jobs", "-1"}, "-jobs"},
		{"zero initial", []string{"-initial", "0"}, "-initial"},
		{"negative scans", []string{"-scans", "-1"}, "-scans"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(context.Background(), tt.args)
			if err == nil {
				t.Fatal("want a validation error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not name the flag %s", err, tt.want)
			}
		})
	}
}

func TestRunMetricsAndCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{
		"-topology", "powerlaw", "-n", "100", "-defense", "backbone", "-rate", "0.4",
		"-scans", "4", "-ticks", "25", "-runs", "2",
		"-metrics", path, "-check",
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("run -metrics -check: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ticks, summaries int
	runsSeen := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Type string `json:"type"`
			Run  int    `json:"run"`
			Tick int    `json:"tick"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not JSON: %v: %s", err, line)
		}
		runsSeen[rec.Run] = true
		switch rec.Type {
		case "tick":
			ticks++
		case "summary":
			summaries++
		}
	}
	if ticks != 2*25 {
		t.Errorf("tick records = %d, want %d", ticks, 2*25)
	}
	if summaries != 2 || len(runsSeen) != 2 {
		t.Errorf("summaries = %d over %d runs, want 2 over 2", summaries, len(runsSeen))
	}
}

// TestRunMetricsOffIdenticalOutput: attaching collectors must not
// change the simulated series the command prints.
func TestRunMetricsOffIdenticalOutput(t *testing.T) {
	args := []string{"-topology", "star", "-n", "50", "-defense", "hub", "-hubcap", "2",
		"-scans", "3", "-ticks", "20", "-runs", "2"}
	plain := captureStdout(t, func() {
		if err := run(context.Background(), args); err != nil {
			t.Errorf("plain run: %v", err)
		}
	})
	path := filepath.Join(t.TempDir(), "m.jsonl")
	observed := captureStdout(t, func() {
		if err := run(context.Background(), append(args, "-metrics", path, "-check")); err != nil {
			t.Errorf("observed run: %v", err)
		}
	})
	// The observed run appends a counters footer; the series lines
	// before it must match byte for byte.
	if !strings.HasPrefix(observed, plain[:strings.LastIndex(plain, "# t50=")]) {
		t.Error("series output differs between plain and observed runs")
	}
}

// TestRunCheckpointResume pins the CLI-level resume contract: a run
// resumed from its checkpoints prints byte-identical output to an
// uninterrupted run with the same flags.
func TestRunCheckpointResume(t *testing.T) {
	base := []string{"-topology", "star", "-n", "50", "-defense", "hub", "-hubcap", "2",
		"-scans", "3", "-ticks", "40", "-runs", "2"}
	clean := captureStdout(t, func() {
		if err := run(context.Background(), base); err != nil {
			t.Errorf("clean run: %v", err)
		}
	})

	ckpt := t.TempDir()
	if err := run(context.Background(), append(base,
		"-checkpoint", ckpt, "-checkpoint-every", "10")); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	for _, f := range []string{"replica-000.ckpt", "replica-001.ckpt"} {
		if _, err := os.Stat(filepath.Join(ckpt, f)); err != nil {
			t.Fatalf("missing checkpoint %s: %v", f, err)
		}
	}

	resumed := captureStdout(t, func() {
		if err := run(context.Background(), append(base, "-resume", ckpt)); err != nil {
			t.Errorf("resumed run: %v", err)
		}
	})
	if resumed != clean {
		t.Error("resumed output differs from the uninterrupted run")
	}
}

// TestRunResumeAfterInterrupt is the crash-recovery path end to end: a
// run killed by a timeout leaves valid checkpoints behind; rerunning
// with -resume completes and reproduces the uninterrupted output
// exactly, wherever the cut fell (including before the first
// checkpoint).
func TestRunResumeAfterInterrupt(t *testing.T) {
	base := []string{"-topology", "powerlaw", "-n", "150", "-defense", "backbone",
		"-rate", "0.4", "-scans", "3", "-ticks", "300", "-runs", "2"}
	clean := captureStdout(t, func() {
		if err := run(context.Background(), base); err != nil {
			t.Errorf("clean run: %v", err)
		}
	})

	ckpt := t.TempDir()
	err := run(context.Background(), append(base,
		"-checkpoint", ckpt, "-checkpoint-every", "5", "-timeout", "25ms"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted run err = %v, want context.DeadlineExceeded", err)
	}

	resumed := captureStdout(t, func() {
		if err := run(context.Background(), append(base,
			"-checkpoint", ckpt, "-resume", ckpt)); err != nil {
			t.Errorf("resumed run: %v", err)
		}
	})
	if resumed != clean {
		t.Error("post-interrupt resume diverged from the uninterrupted run")
	}
}

// TestRunResumeSingleFile: -runs 1 accepts one checkpoint file as the
// -resume target; multi-run batches must name the directory.
func TestRunResumeSingleFile(t *testing.T) {
	base := []string{"-topology", "star", "-n", "40", "-ticks", "30", "-runs", "1"}
	clean := captureStdout(t, func() {
		if err := run(context.Background(), base); err != nil {
			t.Errorf("clean run: %v", err)
		}
	})
	ckpt := t.TempDir()
	if err := run(context.Background(), append(base,
		"-checkpoint", ckpt, "-checkpoint-every", "10")); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	file := filepath.Join(ckpt, "replica-000.ckpt")
	resumed := captureStdout(t, func() {
		if err := run(context.Background(), append(base, "-resume", file)); err != nil {
			t.Errorf("file resume: %v", err)
		}
	})
	if resumed != clean {
		t.Error("single-file resume diverged")
	}

	multi := []string{"-topology", "star", "-n", "40", "-ticks", "30", "-runs", "2", "-resume", file}
	if err := run(context.Background(), multi); err == nil || !strings.Contains(err.Error(), "runs=1") {
		t.Errorf("file resume with -runs 2 should be rejected, got %v", err)
	}
}

// TestRunResumeCorruptCheckpoint: a damaged checkpoint fails the run
// explicitly — it is never silently ignored.
func TestRunResumeCorruptCheckpoint(t *testing.T) {
	base := []string{"-topology", "star", "-n", "40", "-ticks", "30", "-runs", "1"}
	ckpt := t.TempDir()
	if err := run(context.Background(), append(base,
		"-checkpoint", ckpt, "-checkpoint-every", "10")); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	file := filepath.Join(ckpt, "replica-000.ckpt")
	if err := os.WriteFile(file, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), append(base, "-resume", ckpt))
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("corrupt resume err = %v, want a snapshot error", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
