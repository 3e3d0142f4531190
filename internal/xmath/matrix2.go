// Package xmath provides small numeric building blocks shared by the IDG
// pipeline: 2x2 complex matrix algebra for Jones matrices and brightness
// (coherency) matrices, and fast sine/cosine evaluation schemes that play
// the role the vendor math libraries (Intel SVML/VML, CUDA fast math,
// AMD native functions) play in the paper.
package xmath

import "math"

// Matrix2 is a dense 2x2 complex matrix stored row-major:
//
//	| m[0] m[1] |
//	| m[2] m[3] |
//
// It represents Jones matrices (direction-dependent station responses,
// the "A-terms" of the paper) and 2x2 visibility/brightness matrices.
type Matrix2 [4]complex128

// Identity2 returns the 2x2 identity matrix.
func Identity2() Matrix2 {
	return Matrix2{1, 0, 0, 1}
}

// Add returns a + b.
func (a Matrix2) Add(b Matrix2) Matrix2 {
	return Matrix2{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]}
}

// Sub returns a - b.
func (a Matrix2) Sub(b Matrix2) Matrix2 {
	return Matrix2{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]}
}

// Mul returns the matrix product a * b.
func (a Matrix2) Mul(b Matrix2) Matrix2 {
	return Matrix2{
		a[0]*b[0] + a[1]*b[2],
		a[0]*b[1] + a[1]*b[3],
		a[2]*b[0] + a[3]*b[2],
		a[2]*b[1] + a[3]*b[3],
	}
}

// MulH returns a * bᴴ (b conjugate-transposed). This is the operation
// applied on the right-hand side of the measurement equation,
// Aₚ B A_qᴴ.
func (a Matrix2) MulH(b Matrix2) Matrix2 {
	bh := b.Hermitian()
	return a.Mul(bh)
}

// Scale returns s * a for a complex scalar s.
func (a Matrix2) Scale(s complex128) Matrix2 {
	return Matrix2{s * a[0], s * a[1], s * a[2], s * a[3]}
}

// Conj returns the element-wise complex conjugate of a.
func (a Matrix2) Conj() Matrix2 {
	return Matrix2{cconj(a[0]), cconj(a[1]), cconj(a[2]), cconj(a[3])}
}

// Transpose returns aᵀ.
func (a Matrix2) Transpose() Matrix2 {
	return Matrix2{a[0], a[2], a[1], a[3]}
}

// Hermitian returns aᴴ, the conjugate transpose.
func (a Matrix2) Hermitian() Matrix2 {
	return Matrix2{cconj(a[0]), cconj(a[2]), cconj(a[1]), cconj(a[3])}
}

// Det returns the determinant of a.
func (a Matrix2) Det() complex128 {
	return a[0]*a[3] - a[1]*a[2]
}

// Inv returns the inverse of a and reports whether a is invertible.
// A matrix is treated as singular when |det| is below 1e-30.
func (a Matrix2) Inv() (Matrix2, bool) {
	d := a.Det()
	if cabs2(d) < 1e-60 {
		return Matrix2{}, false
	}
	inv := 1 / d
	return Matrix2{inv * a[3], -inv * a[1], -inv * a[2], inv * a[0]}, true
}

// Trace returns the trace of a.
func (a Matrix2) Trace() complex128 {
	return a[0] + a[3]
}

// FrobeniusNorm returns the Frobenius norm of a.
func (a Matrix2) FrobeniusNorm() float64 {
	return math.Sqrt(cabs2(a[0]) + cabs2(a[1]) + cabs2(a[2]) + cabs2(a[3]))
}

// MaxAbsDiff returns the largest element-wise absolute difference
// between a and b; it is the metric used throughout the test suite.
func (a Matrix2) MaxAbsDiff(b Matrix2) float64 {
	m := 0.0
	for i := range a {
		if d := cabs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// SandwichH returns p * a * qᴴ, the full direction-dependent correction
// Aₚ B A_qᴴ from the measurement equation (Eq. 1 of the paper).
func (a Matrix2) SandwichH(p, q Matrix2) Matrix2 {
	return p.Mul(a).Mul(q.Hermitian())
}

func cconj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func cabs2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }
