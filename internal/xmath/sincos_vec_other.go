//go:build !amd64

package xmath

// sincosVecTier off amd64: every tier is the portable loop (the tier
// argument is already clamped to SIMDScalar by detection).
func sincosVecTier[F float32 | float64](_ SIMDTier, sin, cos []F, x []float64) {
	sincosVecScalar(sin, cos, x)
}
