package model

import (
	"math"
	"testing"
)

func TestDelayedImmunizationValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       DelayedImmunization
		wantErr bool
	}{
		{"ok", DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 6, N: 1000, I0: 1}, false},
		{"mu over 1", DelayedImmunization{Beta: 0.8, Mu: 1.1, Delay: 6, N: 1000, I0: 1}, true},
		{"negative delay", DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: -1, N: 1000, I0: 1}, true},
		{"zero beta", DelayedImmunization{Beta: 0, Mu: 0.1, Delay: 6, N: 1000, I0: 1}, true},
		{"bad pop", DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 6, N: 1000, I0: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestDelayedImmunizationBeforeDelayMatchesBaseline(t *testing.T) {
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 8, N: 1000, I0: 1}
	base := Homogeneous{Beta: 0.8, N: 1000, I0: 1}
	for tt := 0.0; tt <= 8; tt += 0.5 {
		if math.Abs(m.Fraction(tt)-base.Fraction(tt)) > 1e-12 {
			t.Fatalf("pre-delay deviation at t=%v", tt)
		}
	}
}

func TestDelayedImmunizationContinuityAtDelay(t *testing.T) {
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 7, N: 1000, I0: 1}
	before := m.Fraction(7 - 1e-9)
	after := m.Fraction(7 + 1e-9)
	if math.Abs(before-after) > 1e-6 {
		t.Errorf("discontinuity at delay: %v vs %v", before, after)
	}
}

func TestDelayedImmunizationEventualDecline(t *testing.T) {
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	peak := 0.0
	for tt := 0.0; tt <= 100; tt += 0.5 {
		if v := m.Fraction(tt); v > peak {
			peak = v
		}
	}
	if peak > 0.999 {
		t.Errorf("peak = %v: immunization should prevent full saturation", peak)
	}
	// Infection eventually dies out (I/N0 -> 0).
	if tail := m.Fraction(300); tail > 0.01 {
		t.Errorf("tail = %v, want near 0", tail)
	}
}

// After patching starts the delayed epidemic declines to extinction,
// unlike the constant-rate SIS model's permanent endemic level (the
// paper's §1 contrast).
func TestDelayedImmunizationExtinction(t *testing.T) {
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 9, N: 1000, I0: 1}
	if got := m.Fraction(500); got > 1e-6 {
		t.Errorf("long-run fraction %v, want extinction", got)
	}
}

// The ODE's peak comes after the delay, above the level at the delay
// and below saturation. Its turning point is where β(N−I)/N ≈ µ, i.e.
// I/N ≈ 1−µ/β = 0.875 — but N shrinks as patching proceeds, so the
// realized peak sits below that bound.
func TestPeakInfectionImmunization(t *testing.T) {
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 7, N: 1000, I0: 1}
	ts, frac, err := Integrate(m, 120, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	peakTime, peak := math.NaN(), -1.0
	for k, tt := range ts {
		if frac[k] > peak {
			peakTime, peak = tt, frac[k]
		}
	}
	if peakTime <= m.Delay {
		t.Errorf("peak at %v, want after delay %v", peakTime, m.Delay)
	}
	if peak >= 1 || peak <= m.Fraction(m.Delay) {
		t.Errorf("peak fraction %v implausible", peak)
	}
	if bound := 1 - m.Mu/m.Beta; peak > bound+0.02 {
		t.Errorf("peak %v exceeds turning-point bound %v", peak, bound)
	}
}

func TestDelayedImmunizationClosedFormVsODE(t *testing.T) {
	// The paper's closed form is an approximation after t > d (it treats
	// N as N0 inside the logistic denominator) — so compare loosely, but
	// the two must agree on the peak location/height to a few percent.
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 9, N: 1000, I0: 1}
	ts, frac, err := Integrate(m, 60, 0.01)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	peakODE, peakCF := 0.0, 0.0
	for k, tt := range ts {
		if frac[k] > peakODE {
			peakODE = frac[k]
		}
		if v := m.Fraction(tt); v > peakCF {
			peakCF = v
		}
	}
	if math.Abs(peakODE-peakCF) > 0.08 {
		t.Errorf("peak mismatch: ODE %v vs closed form %v", peakODE, peakCF)
	}
}

func TestDelayForLevel(t *testing.T) {
	m := DelayedImmunization{Beta: 0.8, Mu: 0.1, N: 1000, I0: 1}
	// Paper: "for immunization starting at 20%, our analytical model
	// shows that it should happen around the 6th timetick" (β=0.8,
	// N=1000... with I0=1 the exact figure is ~lnα/β ≈ 6.9 + logistic
	// correction; accept the 6-10 band).
	d20 := m.DelayForLevel(0.2)
	if d20 < 5 || d20 > 10 {
		t.Errorf("delay for 20%% = %v, want ≈ 6-10 ticks", d20)
	}
	d50 := m.DelayForLevel(0.5)
	d80 := m.DelayForLevel(0.8)
	if !(d20 < d50 && d50 < d80) {
		t.Errorf("delays should increase with level: %v %v %v", d20, d50, d80)
	}
}

// Figure 8(a)'s headline: earlier immunization caps the total infected
// population lower — ~80% for a 20% start, ~90% for 50%, ~98% for 80%.
func TestEverInfectedOrdering(t *testing.T) {
	base := DelayedImmunization{Beta: 0.8, Mu: 0.1, N: 1000, I0: 1}
	var prev float64
	for i, level := range []float64{0.2, 0.5, 0.8} {
		m := base
		m.Delay = m.DelayForLevel(level)
		ever, err := m.EverInfected(100, 0.01)
		if err != nil {
			t.Fatalf("EverInfected: %v", err)
		}
		if ever <= level || ever > 1 {
			t.Errorf("start %v: ever-infected %v out of (level, 1]", level, ever)
		}
		if i > 0 && ever <= prev {
			t.Errorf("ever-infected should increase with delay: %v then %v", prev, ever)
		}
		prev = ever
	}
	// No immunization at all ever infects ~everyone.
	m := base
	m.Mu = 0
	m.Delay = 0
	ever, err := m.EverInfected(100, 0.01)
	if err != nil {
		t.Fatalf("EverInfected: %v", err)
	}
	if ever < 0.99 {
		t.Errorf("µ=0 ever-infected = %v, want ~1", ever)
	}
}

func TestBackboneRLImmunizationValidate(t *testing.T) {
	ok := BackboneRLImmunization{Beta: 0.8, Alpha: 0.5, R: 10, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bad := ok
	bad.Mu = 2
	if err := bad.Validate(); err == nil {
		t.Error("mu=2 should fail")
	}
	bad = ok
	bad.Delay = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative delay should fail")
	}
	bad = ok
	bad.Alpha = 3
	if err := bad.Validate(); err == nil {
		t.Error("alpha=3 should fail")
	}
}

func TestBackboneRLImmunizationGamma(t *testing.T) {
	m := BackboneRLImmunization{Beta: 0.8, Alpha: 0.75, R: 0, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	if got := m.Gamma(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Gamma = %v, want 0.2", got)
	}
}

func TestBackboneRLImmunizationReducesToDelayed(t *testing.T) {
	// α=0, r=0: exactly the plain delayed-immunization model.
	rl := BackboneRLImmunization{Beta: 0.8, Alpha: 0, R: 0, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	plain := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	for tt := 0.0; tt <= 40; tt += 1 {
		if math.Abs(rl.Fraction(tt)-plain.Fraction(tt)) > 1e-12 {
			t.Fatalf("α=0 deviates at t=%v", tt)
		}
	}
}

// Figure 8(b)'s headline: with backbone RL, immunization at the same
// wall-clock delay yields a lower total infected population (72% vs 80%
// in the paper's 20%-start scenario).
func TestRateLimitingBuysTime(t *testing.T) {
	noRL := DelayedImmunization{Beta: 0.8, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	withRL := BackboneRLImmunization{Beta: 0.8, Alpha: 0.3, R: 10, Mu: 0.1, Delay: 6, N: 1000, I0: 1}
	everNo, err := noRL.EverInfected(150, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	everRL, err := withRL.EverInfected(150, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if everRL >= everNo {
		t.Errorf("RL ever-infected %v should be below no-RL %v", everRL, everNo)
	}
	if everNo-everRL < 0.03 {
		t.Errorf("RL benefit %v too small to be meaningful", everNo-everRL)
	}
}

func TestVariableImmunizationValidate(t *testing.T) {
	ok := VariableImmunization{Beta: 0.8, Peak: 0.2, TPeak: 15, Width: 5, Delay: 5, N: 1000, I0: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	for _, mod := range []func(*VariableImmunization){
		func(m *VariableImmunization) { m.Peak = 1.5 },
		func(m *VariableImmunization) { m.Width = 0 },
		func(m *VariableImmunization) { m.Delay = -1 },
		func(m *VariableImmunization) { m.Beta = 0 },
		func(m *VariableImmunization) { m.I0 = 0 },
	} {
		m := ok
		mod(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutated model %+v should fail validation", m)
		}
	}
}

func TestVariableImmunizationBellCurve(t *testing.T) {
	m := VariableImmunization{Beta: 0.8, Peak: 0.2, TPeak: 15, Width: 5, Delay: 5, N: 1000, I0: 1}
	if got := m.Mu(3); got != 0 {
		t.Errorf("µ before delay = %v, want 0", got)
	}
	if got := m.Mu(15); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("µ at peak = %v, want 0.2", got)
	}
	if m.Mu(10) >= m.Mu(15) || m.Mu(40) >= m.Mu(15) {
		t.Error("µ should peak at TPeak")
	}
}

func TestVariableImmunizationVsConstant(t *testing.T) {
	// A bell with the same total patching mass should land in the same
	// ballpark of ever-infected as the constant-µ model; more usefully,
	// zero peak = no immunization at all.
	none := VariableImmunization{Beta: 0.8, Peak: 0, TPeak: 15, Width: 5, Delay: 5, N: 1000, I0: 1}
	ever, err := none.EverInfected(80, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ever < 0.99 {
		t.Errorf("peak=0 should infect ~everyone, got %v", ever)
	}
	bell := VariableImmunization{Beta: 0.8, Peak: 0.3, TPeak: 10, Width: 6, Delay: 5, N: 1000, I0: 1}
	everBell, err := bell.EverInfected(80, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if everBell >= ever {
		t.Errorf("bell-curve patching %v should beat no patching %v", everBell, ever)
	}
}
