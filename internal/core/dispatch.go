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

// dispatchFor builds the dispatch table for a SIMD tier. Both vector
// tiers install the same four tile entry points; what the SIMDAVX512
// tier adds is selected inside them, keyed on the tier resolved here
// and on the item's channel comb:
//
//   - both precisions: every item the recurrence applies to (uniform
//     comb, phasorMinChannels or more: Kernels.fullWidth) grids with a
//     pixel per lane (gridLanesPix: sixteen float64 pixels per call
//     through rotAccPixBlk64, thirty-two float32 pixels through
//     rotAccPixBlk32) and degrids fused over the channels of a resync
//     chunk (degridTileVec: rotConjAccOctsBlk64 at eight pixels per ZMM,
//     rotConjAccBlk32 at sixteen). The float64 rest keeps the 256-bit
//     direct-phasor gridder, the float32 rest the generic gridder tile;
//     both keep the 256-bit per-(t, c) degridder calls.
//   - all four: the phase arguments are staged by the 512-bit stagePIdx
//     and stageArgs instead of Go loops.
//   - the batched sine/cosine seeding inside xmath.SincosVec runs
//     eight lanes per ZMM.
//
// The tiles went to 512 bits on measurement, not on principle: on the
// reference host class (Sapphire-Rapids-type Xeon) a thread sustains
// about twice the lane-FMA rate at ZMM width that it does at YMM width,
// and no kernel is slower on the avx512 tier than on avx2
// (EXPERIMENTS.md, "Float64 tiles at full register width", "Pixels in
// the lanes", "Float32 pixels in the lanes" and "Float32 degridder
// fused over the channels", has the pairs and the per-tier tables). The
// direct-phasor tile is the 256-bit body left on this tier; it has not
// been measured wider.
func dispatchFor(tier xmath.SIMDTier) simdDispatch {
	d := simdDispatch{tier: tier}
	if haveVectorASM && tier >= xmath.SIMDAVX2 {
		d.gridVec64 = gridTileVec
		d.degridVec64 = degridTileVec[float64]
		d.gridVec32 = gridTileVec32
		d.degridVec32 = degridTileVec[float32]
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
	// Lanes is the SIMD width, in elements of the configured precision,
	// of the widest tile body this Kernels value dispatches (1 for the
	// generic tiles): the vector size a roofline for its measurements
	// has to assume.
	Lanes int
}

// String renders the dispatch summary as one log line.
func (si SIMDInfo) String() string {
	return fmt.Sprintf("simd: detected=%s active=%s tiles64=%s tiles32=%s sincos=%s lanes=%d",
		si.Detected, si.Active, si.Tiles64, si.Tiles32, si.Sincos, si.Lanes)
}

// The tile bodies dispatched per vector tier, as SIMDInfo names them.
// The avx512 strings state the one rule that tier selects by, gridder
// and degridder alike (Kernels.fullWidth); TestDispatchPerTier holds the
// stated threshold against it.
const (
	tiles64AVX2   = "avx2+fma 4-lane: time-blocked recurrence, direct phasors"
	tiles64AVX512 = "avx512 8-lane: uniform nc>=3 -> 16-pixel-lane gridder, fused degridder; else avx2+fma 4-lane direct phasors; staged phases"
	tiles32AVX2   = "avx2+fma 8-lane"
	tiles32AVX512 = "avx512 16-lane: uniform nc>=3 -> 32-pixel-lane gridder, fused degridder; else generic gridder, avx2+fma 8-lane degridder; staged phases"
)

// SIMDInfo reports the SIMD dispatch this Kernels value resolved to.
func (k *Kernels) SIMDInfo() SIMDInfo {
	si := SIMDInfo{
		Detected: xmath.DetectedSIMD().String(),
		Active:   k.disp.tier.String(),
		Tiles64:  "generic",
		Tiles32:  "generic",
		Sincos:   "scalar (configured)",
		Lanes:    1,
	}
	if k.disp.gridVec64 != nil {
		// The bodies gridTileVec (fullWidth, then vecRecurrence) and
		// degridTileVec (fullWidth) select between.
		si.Tiles64 = tiles64AVX2
		if k.disp.tier >= xmath.SIMDAVX512 {
			si.Tiles64 = tiles64AVX512
		}
	}
	if k.disp.gridVec32 != nil {
		si.Tiles32 = tiles32AVX2
		if k.disp.tier >= xmath.SIMDAVX512 {
			si.Tiles32 = tiles32AVX512
		}
	}
	if k.vecSincos {
		si.Sincos = "sincosvec/" + k.disp.tier.String()
	}
	if k.disp.gridVec64 != nil {
		// A YMM of float64, doubled by float32 and by the ZMM tier.
		si.Lanes = 4
		if k.params.Precision == Float32 {
			si.Lanes *= 2
		}
		if k.disp.tier >= xmath.SIMDAVX512 {
			si.Lanes *= 2
		}
	}
	return si
}
