package numeric

import (
	"math"
	"testing"
)

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
}

func TestLogisticClosedForm(t *testing.T) {
	// At t=0, Logistic = 1/(c+1) = i0 by construction.
	i0 := 0.05
	c := LogisticC(i0)
	if got := Logistic(0, 0.8, c); math.Abs(got-i0) > 1e-12 {
		t.Errorf("Logistic(0) = %v, want %v", got, i0)
	}
	// Saturation.
	if got := Logistic(1e4, 0.8, c); math.Abs(got-1) > 1e-9 {
		t.Errorf("Logistic(inf) = %v, want 1", got)
	}
	// Overflow-safe branch.
	if got := Logistic(1e6, 1, c); got != 1 {
		t.Errorf("huge t: got %v, want 1", got)
	}
}

func TestLogisticTimeToLevel(t *testing.T) {
	const lambda = 0.8
	i0 := 1.0 / 200
	c := LogisticC(i0)
	for _, level := range []float64{0.1, 0.5, 0.9} {
		tt := LogisticTimeToLevel(level, lambda, c)
		if got := Logistic(tt, lambda, c); math.Abs(got-level) > 1e-9 {
			t.Errorf("roundtrip level %v: got %v", level, got)
		}
	}
	if !math.IsNaN(LogisticTimeToLevel(0, 1, 10)) || !math.IsNaN(LogisticTimeToLevel(1, 1, 10)) {
		t.Error("degenerate levels should give NaN")
	}
}
