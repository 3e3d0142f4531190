package xmath

// Eps32 is the relative rounding step of float32 (2^-23, one ulp at
// 1.0). The float32 kernel error bounds below are quoted in multiples
// of it.
const Eps32 = 0x1p-23

// Float32AccumBound bounds the absolute error of accumulating n
// phasor-rotated terms in float32, against the same sum carried in
// float64, when the term magnitudes sum to sumAbs: every input rounds
// once to float32 (the planar visibility/pixel arrays and the phasor
// components), every product and running addition round once more, and
// a serial (or any reassociated) sum of n such terms compounds to at
// most
//
//	(n + 8) * Eps32 * sumAbs.
//
// Phase arguments and the sincos seeds stay in float64 on the float32
// path, so their error is identical to the float64 path's and does not
// appear here; the rotation recurrence drift does (see
// Float32PhasorDriftBound) and must be added by callers whose phasors
// advance by rotation between exact re-syncs.
func Float32AccumBound(n int, sumAbs float64) float64 {
	return float64(n+8) * Eps32 * sumAbs
}

// Float32PhasorDriftBound is PhasorDriftBound for a rotation recurrence
// carried in float32: after k steps from an exactly seeded phasor the
// sin/cos components drift by at most k * 6 * Eps32 (same argument as
// the float64 bound, scaled to the wider rounding step).
func Float32PhasorDriftBound(k int) float64 {
	return float64(k) * 6 * Eps32
}
