// Package numeric provides the small numerical-analysis substrate used by
// the analytical worm models and the experiment harness: a fixed-step
// RK4 integrator (including piecewise systems whose right-hand side
// switches at state- or time-dependent events), logistic curve helpers,
// and evenly spaced sample grids.
//
// The paper's analytical figures are solutions of small ODE systems
// (logistic epidemics with rate limiting and immunization terms). The
// closed forms printed in the paper are approximations; this package lets
// every model expose both its closed form and its exact ODE, and lets the
// tests cross-validate the two.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// RHS is the right-hand side of an autonomous-in-form ODE system
// dy/dt = f(t, y). Implementations must write the derivative of y into
// dst (len(dst) == len(y)) and must not retain either slice.
type RHS func(t float64, y, dst []float64)

// ErrBadStep reports an invalid integration configuration.
var ErrBadStep = errors.New("numeric: step size must be positive and finite")

// Solution is a dense fixed-step ODE solution: Times[i] is the time of
// sample i and States[i] the state vector at that time. States[0] is a
// copy of the initial condition.
type Solution struct {
	Times  []float64
	States [][]float64
}

// Component extracts component k of the state at every sample.
func (s *Solution) Component(k int) []float64 {
	out := make([]float64, len(s.States))
	for i, st := range s.States {
		out[i] = st[k]
	}
	return out
}

// RK4 integrates dy/dt = f from t0 to t1 with fixed step h using the
// classical fourth-order Runge–Kutta method, recording every step.
// The final step is shortened so the solution lands exactly on t1.
func RK4(f RHS, y0 []float64, t0, t1, h float64) (*Solution, error) {
	if !(h > 0) || math.IsInf(h, 0) || math.IsNaN(h) {
		return nil, ErrBadStep
	}
	if t1 < t0 {
		return nil, fmt.Errorf("numeric: t1 (%v) before t0 (%v)", t1, t0)
	}
	n := len(y0)
	y := append([]float64(nil), y0...)
	sol := &Solution{
		Times:  []float64{t0},
		States: [][]float64{append([]float64(nil), y...)},
	}
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)

	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		if step <= 0 {
			break
		}
		f(t, y, k1)
		for i := 0; i < n; i++ {
			tmp[i] = y[i] + step/2*k1[i]
		}
		f(t+step/2, tmp, k2)
		for i := 0; i < n; i++ {
			tmp[i] = y[i] + step/2*k2[i]
		}
		f(t+step/2, tmp, k3)
		for i := 0; i < n; i++ {
			tmp[i] = y[i] + step*k3[i]
		}
		f(t+step, tmp, k4)
		for i := 0; i < n; i++ {
			y[i] += step / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += step
		sol.Times = append(sol.Times, t)
		sol.States = append(sol.States, append([]float64(nil), y...))
	}
	return sol, nil
}

// Piece is one regime of a piecewise ODE system: While reports whether the
// regime still applies at (t, y); F is the right-hand side used while it
// does. Pieces are evaluated in order and the first applicable one wins.
type Piece struct {
	While func(t float64, y []float64) bool
	F     RHS
}

// PiecewiseRHS builds a single RHS that dispatches to the first piece
// whose While predicate holds. If no piece applies the derivative is zero
// (the system freezes), which is the natural behaviour for epidemic
// models that have burned out.
func PiecewiseRHS(pieces []Piece) RHS {
	return func(t float64, y, dst []float64) {
		for _, p := range pieces {
			if p.While == nil || p.While(t, y) {
				p.F(t, y, dst)
				return
			}
		}
		for i := range dst {
			dst[i] = 0
		}
	}
}
