package xmath

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// SIMDTier identifies the widest vector instruction tier a code path
// may use. Tiers are ordered: a kernel compiled for a tier may run on
// any host whose tier is >= it, so "clamp to the detected tier" is the
// only comparison dispatch ever needs.
type SIMDTier int

const (
	// SIMDScalar uses only the portable Go kernels.
	SIMDScalar SIMDTier = iota
	// SIMDAVX2 requires AVX2 + FMA with OS-enabled YMM state: the
	// 256-bit pixel-lane gridder and fused degridder of both precisions,
	// the phase stagers, the 4-lane sincos and the 4-sample sky
	// predictor.
	SIMDAVX2
	// SIMDAVX512 additionally requires AVX-512 F/DQ/BW/VL with
	// OS-enabled ZMM and opmask state: the 512-bit forms of the same
	// kernels, the 8-lane sincos and the 8-sample sky predictor.
	SIMDAVX512
)

func (t SIMDTier) String() string {
	switch t {
	case SIMDScalar:
		return "scalar"
	case SIMDAVX2:
		return "avx2"
	case SIMDAVX512:
		return "avx512"
	default:
		return fmt.Sprintf("SIMDTier(%d)", int(t))
	}
}

// ParseSIMDTier parses a tier name as accepted by the IDG_SIMD
// environment variable: "scalar" (aliases "off", "none"), "avx2",
// "avx512".
func ParseSIMDTier(s string) (SIMDTier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "scalar", "off", "none":
		return SIMDScalar, nil
	case "avx2":
		return SIMDAVX2, nil
	case "avx512":
		return SIMDAVX512, nil
	default:
		return SIMDScalar, fmt.Errorf("xmath: unknown SIMD tier %q (want scalar, avx2 or avx512)", s)
	}
}

// DetectedSIMD returns the widest tier this CPU and OS support,
// ignoring any override. Always SIMDScalar off amd64.
func DetectedSIMD() SIMDTier { return detectedSIMD }

var (
	activeOnce sync.Once
	activeTier SIMDTier
)

// ActiveSIMD returns the tier the process actually dispatches on: the
// detected tier, lowered by the IDG_SIMD environment variable when it
// names a narrower one. IDG_SIMD can only lower the tier — forcing a
// tier the host lacks would fault — and unparseable values are
// ignored. Resolved once; later environment changes have no effect.
func ActiveSIMD() SIMDTier {
	activeOnce.Do(func() {
		activeTier = simdTierFromEnv(detectedSIMD, os.Getenv("IDG_SIMD"))
	})
	return activeTier
}

// simdTierFromEnv resolves the active tier from the detected one and
// an IDG_SIMD value (pure, for tests).
func simdTierFromEnv(detected SIMDTier, env string) SIMDTier {
	if env == "" {
		return detected
	}
	t, err := ParseSIMDTier(env)
	if err != nil || t > detected {
		return detected
	}
	return t
}
