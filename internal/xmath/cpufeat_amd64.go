//go:build amd64

package xmath

// cpuid executes the CPUID instruction with the given leaf/subleaf.
// Implemented in cpufeat_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the XCR0 feature mask).
// Only valid when CPUID reports OSXSAVE. Implemented in
// cpufeat_amd64.s.
func xgetbv() (eax, edx uint32)

var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// The OS must have enabled XMM+YMM state saving (XCR0 bits 1 and 2)
	// or executing VEX-256 instructions faults.
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// HasAVX2FMA reports whether this CPU (and OS) supports the AVX2 and
// FMA instruction sets the hand-vectorized kernel loops in
// internal/core require. Always false off amd64.
func HasAVX2FMA() bool { return hasAVX2FMA }

var hasPCLMULQDQ = detectPCLMULQDQ()

func detectPCLMULQDQ() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const pclmulqdqBit = 1 << 1
	return ecx1&pclmulqdqBit != 0
}

// HasPCLMULQDQ reports the 128-bit carry-less multiply (PCLMULQDQ) the
// CRC folding routine of internal/frame uses. It reports detection
// only; callers clamp to ActiveSIMD. Always false off amd64.
func HasPCLMULQDQ() bool { return hasPCLMULQDQ }

// detectedSIMD is the widest tier the host supports (see SIMDTier).
var detectedSIMD = detectSIMD()

func detectSIMD() SIMDTier {
	if !hasAVX2FMA {
		return SIMDScalar
	}
	// AVX-512 tier: the foundation plus the DQ/BW/VL extensions every
	// mainstream AVX-512 part ships (leaf 7 EBX), and the OS must save
	// opmask + upper-ZMM + hi16-ZMM state (XCR0 bits 5..7) or EVEX
	// instructions fault.
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx512fBit  = 1 << 16
		avx512dqBit = 1 << 17
		avx512bwBit = 1 << 30
		avx512vlBit = 1 << 31
		need        = avx512fBit | avx512dqBit | avx512bwBit | avx512vlBit
	)
	if ebx7&need != need {
		return SIMDAVX2
	}
	if eax, _ := xgetbv(); eax&0xe6 != 0xe6 {
		return SIMDAVX2
	}
	return SIMDAVX512
}
