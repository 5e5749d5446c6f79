package numeric

import "math"

// Logistic evaluates the normalized logistic epidemic curve
//
//	i(t) = e^{λt} / (c + e^{λt})
//
// which solves di/dt = λ·i·(1−i). It is the solution form the paper
// derives for every pure rate-limited epidemic (Equations 1, 3, 4, 6),
// differing only in the effective exponent λ and the constant c fixed by
// the initial condition.
func Logistic(t, lambda, c float64) float64 {
	// Evaluate in a numerically safe form: for large λt, e^{λt} overflows,
	// but the value tends to 1/(1 + c·e^{−λt}).
	x := lambda * t
	if x > 500 {
		return 1
	}
	e := math.Exp(x)
	return e / (c + e)
}

// LogisticC returns the constant c such that Logistic(0, λ, c) = i0,
// i.e. c = (1 − i0)/i0. i0 must be in (0, 1).
func LogisticC(i0 float64) float64 {
	return (1 - i0) / i0
}

// LogisticTimeToLevel returns the time at which the logistic curve with
// exponent λ and constant c reaches fraction level ∈ (0, 1):
//
//	t = ln( c·level/(1−level) ) / λ
//
// For low initial infection (c ≈ N−1) and small target levels this
// reduces to the paper's t ≐ ln(α)/λ approximation (Equation 2).
func LogisticTimeToLevel(level, lambda, c float64) float64 {
	if level <= 0 || level >= 1 || lambda == 0 {
		return math.NaN()
	}
	return math.Log(c*level/(1-level)) / lambda
}
