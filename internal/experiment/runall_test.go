package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestRunAllOrderAndIDs(t *testing.T) {
	// Analytic figures only: fast and deterministic.
	ids := []string{"fig1a", "fig2", "fig10"}
	var last runner.Stats
	results, _, err := RunAllStats(context.Background(), ids, quickOpts(),
		runner.WithJobs(2),
		runner.WithProgress(func(s runner.Stats) { last = s }))
	if err != nil {
		t.Fatalf("RunAllStats: %v", err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res == nil || res.ID != ids[i] {
			t.Errorf("result %d = %v, want id %q in order", i, res, ids[i])
		}
	}
	if last.Completed != len(ids) || last.Failed != 0 {
		t.Errorf("final stats = %+v, want %d completed", last, len(ids))
	}
	if last.Ticks == 0 {
		t.Error("figure ticks should be reported to the pool")
	}
}

func TestRunAllUnknownIDFails(t *testing.T) {
	_, _, err := RunAllStats(context.Background(), []string{"fig1a", "figZZ"}, quickOpts(), runner.WithJobs(1))
	if err == nil {
		t.Fatal("unknown figure should fail the batch")
	}
	if !strings.Contains(err.Error(), "figZZ") {
		t.Errorf("error should name the figure: %v", err)
	}
}

func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunAllStats(ctx, []string{"fig4"}, quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidFigure aborts a simulation-backed figure while
// it is running and expects the ctx error to surface promptly.
func TestRunContextCancelMidFigure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, "fig4", quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunAllMatchesRun guards RunAllStats against diverging from one-at-a-
// time regeneration: the batched result must be identical. fig4 and
// fig8b are simulated, so under `make race` two figures' engines run
// concurrently on the replica pool, as in a figures batch.
func TestRunAllMatchesRun(t *testing.T) {
	ids := []string{"fig1a", "fig7a", "fig4", "fig8b"}
	batched, _, err := RunAllStats(context.Background(), ids, quickOpts(), runner.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		single, err := RunContext(context.Background(), id, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Figure.Series) != len(batched[i].Figure.Series) {
			t.Fatalf("%s: series count differs", id)
		}
		for s := range single.Figure.Series {
			a, b := single.Figure.Series[s], batched[i].Figure.Series[s]
			if a.Label != b.Label || len(a.Y) != len(b.Y) {
				t.Fatalf("%s series %d: shape differs", id, s)
			}
			for k := range a.Y {
				if a.Y[k] != b.Y[k] {
					t.Fatalf("%s series %d point %d: %v != %v", id, s, k, a.Y[k], b.Y[k])
				}
			}
		}
	}
}
