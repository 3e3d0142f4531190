//go:build amd64 && !amd64.v3

package sky

import (
	"math"
	"unsafe"

	"repro/internal/xmath"
)

// The lane kernels (predict_amd64.s) transcribe the operations the Go
// compiler emits for Predict at GOAMD64=v1, where no multiply-add is
// fused; amd64.v3 builds contract them, so there the scalar loop runs.

// The kernels read each source in place: l, m, n at offsets 0, 8, 16,
// the brightness matrix from 24, 88 bytes per source. Either constant
// moving fails this line at compile time.
var _ [0]struct{} = [unsafe.Sizeof(predictorSource{}) - 88 + unsafe.Offsetof(predictorSource{}.b) - 24]struct{}{}

// predictQuads and predictOcts predict ng >= 1 groups of four (avx2)
// or eight (avx512) samples and return the index of the first group
// with a lane they do not reduce, or ng.
//
//go:noescape
func predictQuads(src *predictorSource, nsrc int, u, v, w *float64, out *xmath.Matrix2, ng int) int

//go:noescape
func predictOcts(src *predictorSource, nsrc int, u, v, w *float64, out *xmath.Matrix2, ng int) int

// sincosGoQuads and sincosGoOcts are the kernels' math.Sincos alone,
// for the conformance tests; lanes outside |x| < 2^29 come back
// unspecified.
//
//go:noescape
func sincosGoQuads(sin, cos, x *float64, nq int)

//go:noescape
func sincosGoOcts(sin, cos, x *float64, no int)

// laneWidth is the samples per register at the tier, 0 below avx2.
func laneWidth(tier xmath.SIMDTier) int {
	switch {
	case tier >= xmath.SIMDAVX512:
		return 8
	case tier >= xmath.SIMDAVX2:
		return 4
	}
	return 0
}

// predictLanes fills the leading whole groups of dst at the tier's
// width and returns how many samples it wrote; a group the kernel stops
// at goes through Predict, and the kernel resumes after it.
func predictLanes(tier xmath.SIMDTier, p Predictor, dst []xmath.Matrix2, u, v, w []float64) int {
	width := laneWidth(tier)
	if width == 0 {
		return 0
	}
	kernel := predictQuads
	if width == 8 {
		kernel = predictOcts
	}
	var src *predictorSource
	if len(p) > 0 {
		src = &p[0]
	}
	ng := len(dst) / width
	for g := 0; g < ng; {
		i := g * width
		g += kernel(src, len(p), &u[i], &v[i], &w[i], &dst[i], ng-g)
		if g < ng {
			for k := g * width; k < (g+1)*width; k++ {
				dst[k] = p.Predict(u[k], v[k], w[k])
			}
			g++
		}
	}
	return ng * width
}

// sincosLanes is math.Sincos over x at the tier's width: whole groups
// through the lane kernel, lanes it does not reduce and the tail
// through math.Sincos.
func sincosLanes(tier xmath.SIMDTier, sin, cos, x []float64) {
	i := 0
	if width := laneWidth(tier); width > 0 && len(x) >= width {
		ng := len(x) / width
		if width == 8 {
			sincosGoOcts(&sin[0], &cos[0], &x[0], ng)
		} else {
			sincosGoQuads(&sin[0], &cos[0], &x[0], ng)
		}
		for ; i < ng*width; i++ {
			if !(math.Abs(x[i]) < 1<<29) {
				sin[i], cos[i] = math.Sincos(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		sin[i], cos[i] = math.Sincos(x[i])
	}
}
