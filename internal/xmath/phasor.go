package xmath

import "math"

// The gridder and degridder evaluate phasors exp(i*phase(c)) over the
// channels of a work item. Van der Tol et al. (A&A 2018, the IDG
// method paper) observe that the phase is an affine function of
// frequency: for equally spaced channels, phase(c) = base + c*delta
// with a delta that is constant for a given (pixel, time step). A full
// sine/cosine evaluation per channel can therefore be replaced by two
// evaluations (base and delta) plus one complex multiplication per
// remaining channel — the phasor rotation recurrence the kernels in
// internal/core run.
//
// # Error bound
//
// One recurrence step rotates a unit phasor by the delta phasor using
// four multiplications and two additions in float64. Rotation by a
// unit complex number is backward stable: each step adds the rounding
// of a 2-term dot product of values <= 1 (at most (2*sqrt(2)+1)*eps
// across both components) plus the once-rounded delta phasor acting as
// a constant angular error (at most sqrt(2)*eps per step), so after k
// steps the components deviate from the exactly evaluated sin/cos by
// less than the conservative envelope
//
//	k * 6 * eps  +  (error of the seed evaluations),
//
// with eps = 2^-52. With the default re-sync interval
// K = DefaultPhasorResync = 64 the drift term stays below
// 64 * 6 * 2.22e-16 ≈ 8.5e-14 (PhasorDriftBound returns it).
//
// Comparing against a *directly evaluated* reference adds one more
// term: the direct path rounds its argument base + k*delta once at the
// argument's own magnitude, so the two computations may disagree by up
// to |phase| * eps before any trigonometry happens. PhasorErrorBound
// combines both terms; for the kernels' |phase| <= 1e4 argument range
// (Section VI-C of the IPDPS paper) it evaluates to ≈ 2.3e-12, and the
// kernels' property tests assert it against the direct evaluation.
// Seeding with the kernels' evaluator (SincosFast, an approximation)
// adds its own error on top, exactly as in the direct path, so the
// recurrence never changes the accuracy class of a kernel.

// DefaultPhasorResync is the default re-sync interval K of the
// recurrence. 64 keeps the drift below ~8.5e-14 (see PhasorDriftBound)
// while amortizing the two seed evaluations over long channel runs.
const DefaultPhasorResync = 64

// PhasorDriftBound returns the worst-case absolute drift of sin/cos
// after k recurrence steps from an exact seed: k * 6 * eps.
func PhasorDriftBound(k int) float64 {
	const eps = 0x1p-52
	return float64(k) * 6 * eps
}

// PhasorErrorBound is the documented maximum absolute deviation of the
// recurrence from directly evaluating its seed evaluator at
// base + k*delta, for phases up to maxAbsPhase in magnitude and the
// given re-sync interval (<= 0 means DefaultPhasorResync): the
// rotation drift plus the differing argument rounding of the two
// computations. The property tests enforce it.
func PhasorErrorBound(resync int, maxAbsPhase float64) float64 {
	const eps = 0x1p-52
	if resync <= 0 {
		resync = DefaultPhasorResync
	}
	return PhasorDriftBound(resync) + maxAbsPhase*eps
}

// UniformSpacing reports whether xs is an (approximately) arithmetic
// progression, and returns its common difference. The tolerance is
// relative to the spread of xs: every gap must match the mean gap to
// within rtol*(max-min). Sequences of fewer than two elements and any
// two-element sequence are trivially uniform.
func UniformSpacing(xs []float64, rtol float64) (delta float64, ok bool) {
	if len(xs) < 2 {
		return 0, true
	}
	delta = (xs[len(xs)-1] - xs[0]) / float64(len(xs)-1)
	tol := rtol * math.Abs(xs[len(xs)-1]-xs[0])
	if tol == 0 {
		tol = rtol * math.Abs(xs[0])
	}
	for i := 1; i < len(xs); i++ {
		if math.Abs(xs[i]-xs[i-1]-delta) > tol {
			return 0, false
		}
	}
	return delta, true
}
