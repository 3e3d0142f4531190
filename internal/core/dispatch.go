package core

import (
	"fmt"

	"repro/internal/xmath"
)

// simdDispatch is the resolved kernel dispatch of one Kernels value:
// the SIMD tier in effect plus the tile-kernel entry points it enables.
// A nil entry means "use the generic Go tile". Resolution happens once
// in NewKernels — from xmath.ActiveSIMD() (hardware detection clamped
// by the IDG_SIMD environment override) and the forceSIMD test seam —
// so the hot paths select a kernel with one pointer test instead of
// re-consulting feature flags.
type simdDispatch struct {
	tier xmath.SIMDTier

	gridVec64   gridTileFn[float64]
	degridVec64 degridTileFn[float64]
	gridVec32   gridTileFn[float32]
	degridVec32 degridTileFn[float32]
}

// dispatchFor builds the dispatch table for a SIMD tier. The vector
// tile bodies keep 256-bit lanes at both vector tiers — four float64
// or eight float32 lanes per YMM register; 512-bit lanes would
// downclock older server parts. The AVX-512 tier still differs in two
// ways: the batched sine/cosine seeding inside xmath.SincosVec widens
// to eight-lane ZMM arithmetic, and the blocked float32 gridder runs
// two pixels per call (rotAccOctsBlk2), using the EVEX-only registers
// Y16-Y31 for the second pixel's accumulator and phasor state. The
// tier test for the pairing lives in gridTileVec32, keyed on the same
// simdDispatch tier resolved here.
func dispatchFor(tier xmath.SIMDTier) simdDispatch {
	d := simdDispatch{tier: tier}
	if haveVectorASM && tier >= xmath.SIMDAVX2 {
		d.gridVec64 = gridTileVec
		d.degridVec64 = degridTileVec
		d.gridVec32 = gridTileVec32
		d.degridVec32 = degridTileVec32
	}
	return d
}

// SIMDInfo describes the kernel dispatch actually in effect for one
// Kernels value, for startup logs and benchmark reports: measured
// numbers are only interpretable next to the code path that produced
// them.
type SIMDInfo struct {
	// Detected is the widest SIMD tier the host CPU supports.
	Detected string
	// Active is the tier in effect after the IDG_SIMD environment
	// override (which can only lower the tier).
	Active string
	// Tiles64 and Tiles32 name the tile-kernel implementations the
	// gridder/degridder dispatch to per precision.
	Tiles64, Tiles32 string
	// Sincos names the phase evaluator of the batched kernels.
	Sincos string
}

// String renders the dispatch summary as one log line.
func (si SIMDInfo) String() string {
	return fmt.Sprintf("simd: detected=%s active=%s tiles64=%s tiles32=%s sincos=%s",
		si.Detected, si.Active, si.Tiles64, si.Tiles32, si.Sincos)
}

// SIMDInfo reports the SIMD dispatch this Kernels value resolved to.
func (k *Kernels) SIMDInfo() SIMDInfo {
	si := SIMDInfo{
		Detected: xmath.DetectedSIMD().String(),
		Active:   k.disp.tier.String(),
		Tiles64:  "generic",
		Tiles32:  "generic",
		Sincos:   "scalar (configured)",
	}
	if k.disp.gridVec64 != nil {
		// The two lane fillers of gridTileVec (vecRecurrence selects).
		si.Tiles64 = "avx2+fma 4-lane: time-blocked recurrence, direct phasors"
	}
	if k.disp.gridVec32 != nil {
		si.Tiles32 = "avx2+fma 8-lane"
		if k.disp.tier >= xmath.SIMDAVX512 {
			// The blocked float32 gridder pairs pixels through the
			// EVEX-encoded dual-pixel kernel at this tier.
			si.Tiles32 = "avx2+fma 8-lane, evex 2-pixel blocks"
		}
	}
	if k.vecSincos {
		si.Sincos = "sincosvec/" + k.disp.tier.String()
	}
	return si
}
