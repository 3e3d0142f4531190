package core

import (
	"fmt"

	"repro/internal/xmath"
)

// simdDispatch is the resolved kernel dispatch of one Kernels value:
// the SIMD tier in effect, the tile kernels, and the bodies and width
// their routines run at. Resolution happens once in NewKernels — from
// xmath.ActiveSIMD() (hardware detection clamped by the IDG_SIMD
// environment override) and the forceSIMD test seam — so the hot paths
// select a body with a flag test instead of re-consulting feature flags.
type simdDispatch struct {
	tier xmath.SIMDTier

	grid64   gridTileFn[float64]
	degrid64 degridTileFn[float64]
	grid32   gridTileFn[float32]
	degrid32 degridTileFn[float32]

	// The assembled A-term sandwiches (simd_amd64.go; nil on the scalar
	// tier, whose tiles take the per-pixel transcriptions), lanes float64
	// pixels per register, and the planar grouping the gridder leaves its
	// sums in: sum j of a tile's pixel i at
	// sums[8*sumsW*(i/sumsW) + sumsW*j + i%sumsW]. scalar selects the Go
	// bodies of the pixel-lane routines (lanes.go) at the avx2 geometry,
	// zmm the ZMM forms, which the W routines take as their last argument.
	gridSandwich   func(out0, out1, out2, out3 *complex128, sums, p, q *float64, stride int, taper *float64, nv int)
	degridSandwich func(planes *float64, stride int, in0, in1, in2, in3 *complex128, p, q, taper *float64, nv int)
	lanes, sumsW   int
	scalar, zmm    bool

	tiles64, tiles32 string // SIMDInfo's names for the tiles above
}

// The tile bodies dispatched per tier, as SIMDInfo names them.
const (
	tiles64Scalar = "go 4-pixel groups: pixel-lane gridder, fused degridder, staged phases"
	tiles32Scalar = "go 8-pixel groups: pixel-lane gridder, fused degridder, staged phases"
	tiles64AVX2   = "avx2+fma 4-lane: 4-pixel-lane gridder, fused degridder, staged phases"
	tiles64AVX512 = "avx512 8-lane: 16-pixel-lane gridder, fused degridder, staged phases"
	tiles32AVX2   = "avx2+fma 8-lane: 8-pixel-lane gridder, fused degridder, staged phases"
	tiles32AVX512 = "avx512 16-lane: 32-pixel-lane gridder, fused degridder, staged phases"
)

// dispatchFor builds the dispatch table for a SIMD tier: which body runs
// is the tier's alone to say. Every tier runs the same two tiles on every
// item of both precisions — pixels in the lanes (gridTilePix), the
// degridder fused over the channels a staged row of phasors serves
// (degridTileFused), phases staged by stagePIdx and stageArgs — with
// their routines, A-term sandwiches (read as planes: jones) and
// xmath.SincosVec at the tier's register width: YMM, four float64 pixels
// per register, on avx2; ZMM, eight, on avx512; on the scalar tier the
// routines' Go bodies at the avx2 geometry, and the sandwiches' per-pixel
// transcriptions.
//
// The avx512 tier went to 512 bits on measurement, not on principle: on
// the reference host class (Sapphire-Rapids-type Xeon) a thread sustains
// about twice the lane-FMA rate at ZMM width that it does at YMM width
// (EXPERIMENTS.md, "Float64 tiles at full register width" on, has the
// pairs and the per-tier tables).
func dispatchFor(tier xmath.SIMDTier) simdDispatch {
	d := simdDispatch{tier: tier,
		grid64: gridTilePix[float64], degrid64: degridTileFused[float64],
		grid32: gridTilePix[float32], degrid32: degridTileFused[float32],
		lanes: 4, sumsW: 4, scalar: true, tiles64: tiles64Scalar, tiles32: tiles32Scalar}
	switch {
	case !haveVectorASM || tier < xmath.SIMDAVX2:
	case tier < xmath.SIMDAVX512:
		d.scalar, d.tiles64, d.tiles32 = false, tiles64AVX2, tiles32AVX2
		d.gridSandwich, d.degridSandwich = gridSandwichQuads, degridSandwichQuads
	default:
		d.scalar, d.tiles64, d.tiles32 = false, tiles64AVX512, tiles32AVX512
		d.gridSandwich, d.degridSandwich, d.lanes, d.sumsW = gridSandwichOcts, degridSandwichOcts, 8, 16
		d.zmm = true
	}
	return d
}

// registers is how many whole registers of np pixels the assembled
// sandwiches take; none on the scalar tier.
func (d *simdDispatch) registers(np int) int {
	if d.scalar {
		return 0
	}
	return np / d.lanes
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
	// scalar tier's Go bodies): the vector size a roofline for its
	// measurements has to assume.
	Lanes int
}

// String renders the dispatch summary as one log line.
func (si SIMDInfo) String() string {
	return fmt.Sprintf("simd: detected=%s active=%s tiles64=%s tiles32=%s sincos=%s lanes=%d",
		si.Detected, si.Active, si.Tiles64, si.Tiles32, si.Sincos, si.Lanes)
}

// SIMDInfo reports the SIMD dispatch this Kernels value resolved to.
func (k *Kernels) SIMDInfo() SIMDInfo {
	si := SIMDInfo{
		Detected: xmath.DetectedSIMD().String(),
		Active:   k.disp.tier.String(),
		Tiles64:  k.disp.tiles64,
		Tiles32:  k.disp.tiles32,
		Sincos:   "sincosvec/" + k.disp.tier.String(),
		Lanes:    k.disp.lanes, // of float64; a register holds twice the float32
	}
	switch {
	case k.disp.scalar:
		si.Lanes = 1
	case k.params.Precision == Float32:
		si.Lanes *= 2
	}
	return si
}
