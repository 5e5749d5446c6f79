package numeric

import (
	"math"
	"testing"
)

func TestRK4Exponential(t *testing.T) {
	// dy/dt = y, y(0)=1 -> y(t)=e^t.
	f := func(t float64, y, dst []float64) { dst[0] = y[0] }
	sol, err := RK4(f, []float64{1}, 0, 2, 0.01)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	got := sol.States[len(sol.States)-1][0]
	want := math.Exp(2)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("e^2: got %v want %v", got, want)
	}
}

func TestRK4Logistic(t *testing.T) {
	// di/dt = λ i (1 - i) matches Logistic closed form.
	const lambda = 0.8
	i0 := 0.01
	c := LogisticC(i0)
	f := func(t float64, y, dst []float64) { dst[0] = lambda * y[0] * (1 - y[0]) }
	sol, err := RK4(f, []float64{i0}, 0, 20, 0.05)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	for k, tt := range sol.Times {
		want := Logistic(tt, lambda, c)
		got := sol.States[k][0]
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("t=%v: got %v want %v", tt, got, want)
		}
	}
}

func TestRK4LandsExactlyOnT1(t *testing.T) {
	f := func(t float64, y, dst []float64) { dst[0] = 1 }
	sol, err := RK4(f, []float64{0}, 0, 1, 0.3) // 0.3 does not divide 1
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	last := sol.Times[len(sol.Times)-1]
	if last != 1 {
		t.Errorf("final time = %v, want exactly 1", last)
	}
	y := sol.States[len(sol.States)-1][0]
	if math.Abs(y-1) > 1e-12 {
		t.Errorf("y(1) = %v, want 1", y)
	}
}

func TestRK4BadInputs(t *testing.T) {
	f := func(t float64, y, dst []float64) { dst[0] = 0 }
	if _, err := RK4(f, []float64{0}, 0, 1, 0); err == nil {
		t.Error("zero step: want error")
	}
	if _, err := RK4(f, []float64{0}, 0, 1, math.NaN()); err == nil {
		t.Error("NaN step: want error")
	}
	if _, err := RK4(f, []float64{0}, 1, 0, 0.1); err == nil {
		t.Error("t1 < t0: want error")
	}
}

func TestSolutionComponent(t *testing.T) {
	f := func(t float64, y, dst []float64) { dst[0], dst[1] = 1, -1 }
	sol, err := RK4(f, []float64{0, 0}, 0, 1, 0.25)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	c0 := sol.Component(0)
	c1 := sol.Component(1)
	if len(c0) != len(sol.Times) || len(c1) != len(sol.Times) {
		t.Fatalf("component lengths %d/%d, want %d", len(c0), len(c1), len(sol.Times))
	}
	last := len(c0) - 1
	if math.Abs(c0[last]-1) > 1e-12 || math.Abs(c1[last]+1) > 1e-12 {
		t.Errorf("final components %v, %v; want 1, -1", c0[last], c1[last])
	}
}

func TestPiecewiseRHS(t *testing.T) {
	// Regime 1 while y < 5: dy/dt = 1. Regime 2 after: dy/dt = -1... but
	// first-match semantics mean once y >= 5 piece 2 applies.
	rhs := PiecewiseRHS([]Piece{
		{
			While: func(t float64, y []float64) bool { return y[0] < 5 },
			F:     func(t float64, y, dst []float64) { dst[0] = 1 },
		},
		{
			While: nil, // always
			F:     func(t float64, y, dst []float64) { dst[0] = 0 },
		},
	})
	sol, err := RK4(rhs, []float64{0}, 0, 20, 0.01)
	if err != nil {
		t.Fatalf("RK4: %v", err)
	}
	final := sol.States[len(sol.States)-1][0]
	if math.Abs(final-5) > 0.05 {
		t.Errorf("piecewise plateau = %v, want ~5", final)
	}
}

func TestPiecewiseRHSNoPieceFreezes(t *testing.T) {
	rhs := PiecewiseRHS([]Piece{{
		While: func(t float64, y []float64) bool { return false },
		F:     func(t float64, y, dst []float64) { dst[0] = 100 },
	}})
	dst := []float64{42}
	rhs(0, []float64{1}, dst)
	if dst[0] != 0 {
		t.Errorf("frozen derivative = %v, want 0", dst[0])
	}
}
