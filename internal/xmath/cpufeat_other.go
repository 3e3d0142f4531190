//go:build !amd64

package xmath

// HasAVX2FMA reports whether this CPU supports the AVX2 and FMA
// instruction sets the hand-vectorized kernel loops in internal/core
// require. Always false off amd64.
func HasAVX2FMA() bool { return false }

// hasAVX2FMA mirrors the amd64 detection variable so shared code
// (CvtF64F32) compiles portably; constant false lets the compiler drop
// the vector branch entirely.
const hasAVX2FMA = false

// detectedSIMD: only the portable kernels exist off amd64.
const detectedSIMD = SIMDScalar

// HasPCLMULQDQ reports the 128-bit carry-less multiply. Always false
// off amd64.
func HasPCLMULQDQ() bool { return false }
