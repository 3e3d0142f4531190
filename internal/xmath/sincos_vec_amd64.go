//go:build amd64

package xmath

// sincosQuads evaluates nq groups of four lanes with AVX2+FMA; see
// sincos_vec_amd64.s. Buffers must hold 4*nq elements, nq >= 1.
// sincosQuads32 stores the results narrowed to float32.
//
//go:noescape
func sincosQuads(sin, cos, x *float64, nq int)

//go:noescape
func sincosQuads32(sin, cos *float32, x *float64, nq int)

// sincosOcts evaluates no groups of eight lanes with AVX-512F; buffers
// must hold 8*no elements, no >= 1. sincosOcts32 stores them narrowed.
//
//go:noescape
func sincosOcts(sin, cos, x *float64, no int)

//go:noescape
func sincosOcts32(sin, cos *float32, x *float64, no int)

// sincosVecTier runs the widest kernel the tier allows, in the form
// that stores F, and finishes the remainder with the bit-identical
// scalar sequence. Lane position never changes a result, so the split
// points are invisible.
func sincosVecTier[F float32 | float64](tier SIMDTier, sin, cos []F, x []float64) {
	w := 0
	if tier >= SIMDAVX512 {
		w = 8
	} else if tier >= SIMDAVX2 {
		w = 4
	}
	n, i := len(x), 0
	if w > 0 && n >= w {
		i = n / w * w
		switch s := any(sin).(type) {
		case []float64:
			c := any(cos).([]float64)
			if w == 8 {
				sincosOcts(&s[0], &c[0], &x[0], n/w)
			} else {
				sincosQuads(&s[0], &c[0], &x[0], n/w)
			}
		case []float32:
			c := any(cos).([]float32)
			if w == 8 {
				sincosOcts32(&s[0], &c[0], &x[0], n/w)
			} else {
				sincosQuads32(&s[0], &c[0], &x[0], n/w)
			}
		}
	}
	sincosVecScalar(sin[i:n], cos[i:n], x[i:n])
}
