//go:build !amd64 || amd64.v3

package sky

import (
	"math"

	"repro/internal/xmath"
)

// Off amd64, and where the toolchain fuses multiply-adds, there are no
// lane kernels: PredictBatch is the scalar loop at every tier.

func predictLanes(xmath.SIMDTier, Predictor, []xmath.Matrix2, []float64, []float64, []float64) int {
	return 0
}

func sincosLanes(_ xmath.SIMDTier, sin, cos, x []float64) {
	for i := range x {
		sin[i], cos[i] = math.Sincos(x[i])
	}
}
