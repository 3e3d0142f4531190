package core

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/xmath"
)

// runGridderAblation grids one 64-step item of nc channels of random
// visibilities into a 24-pixel subgrid under mod and reports MVis/s.
func runGridderAblation(b *testing.B, nc int, mod func(*Params)) {
	const sg, nt = 24, 64
	k := tilingKernels(b, sg, nc, mod)
	item, uvw, vis, _ := tilingItem(11, nt, nc)
	out := grid.NewSubgrid(sg, item.X0, item.Y0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.GridSubgrid(item, uvw, vis, nil, nil, out)
	}
	b.ReportMetric(float64(b.N)*float64(item.NrVisibilities())/b.Elapsed().Seconds()/1e6, "MVis/s")
}

// BenchmarkAblationBatching compares the batch-blocked kernels
// (Section V-B optimizations: transposition, planar re/im, batched
// sincos) against the direct Algorithm 1 transcription.
func BenchmarkAblationBatching(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runGridderAblation(b, 8, nil) })
	b.Run("reference", func(b *testing.B) {
		runGridderAblation(b, 8, func(p *Params) { p.disableBatching = true })
	})
}

// BenchmarkAblationChannelCount sweeps the channel block width of the
// inner reduction (Listing 1: vectorization works best when the
// channel count matches the SIMD width). Every uniform comb runs twice
// per precision: as dispatched and with the recurrence disabled (one
// evaluated phasor per sample) — the measurement phasorMinChannels is
// set from, on every tier (Go lanes under IDG_SIMD=scalar, YMM under
// IDG_SIMD=avx2, ZMM on avx512). 9, 33 and 66 are there for the channel
// tail and the second resync chunk. The non-uniform comb has only the
// direct form.
func BenchmarkAblationChannelCount(b *testing.B) {
	jitter := func(p *Params) {
		for i := range p.Frequencies {
			p.Frequencies[i] += 30e3 * float64(i%3)
		}
	}
	for _, nc := range []int{1, 2, 3, 4, 5, 8, 9, 16, 24, 33, 64, 66} {
		for _, prec := range []Precision{Float64, Float32} {
			name := fmt.Sprintf("c=%d", nc)
			if prec == Float32 {
				name += "/f32"
			}
			b.Run(name, func(b *testing.B) {
				runGridderAblation(b, nc, func(p *Params) { p.Precision = prec })
			})
			b.Run(name+"/direct", func(b *testing.B) {
				runGridderAblation(b, nc, func(p *Params) { p.Precision, p.disablePhasorRecurrence = prec, true })
			})
		}
	}
	b.Run("c=16/nonuniform", func(b *testing.B) { runGridderAblation(b, 16, jitter) })
	b.Run("c=16/nonuniform/f32", func(b *testing.B) {
		runGridderAblation(b, 16, func(p *Params) { jitter(p); p.Precision = Float32 })
	})
}

// BenchmarkAblationPixelTileRows sweeps the pixel-tile height: tiles
// size the phasor working set; very short tiles re-walk the
// visibility block more often, very tall tiles spill the planar
// visibility slabs out of L1. rows=24 is one whole-subgrid tile (no
// tiling). For the vector tiles against their Go bodies run any of
// these under IDG_SIMD=scalar.
func BenchmarkAblationPixelTileRows(b *testing.B) {
	for _, tr := range []int{1, 2, 4, 8, 24} {
		b.Run(fmt.Sprintf("rows=%d", tr), func(b *testing.B) {
			runGridderAblation(b, 8, func(p *Params) { p.pixelTileRows = tr })
		})
	}
}

// BenchmarkAblationDegridTileRows is BenchmarkAblationPixelTileRows for
// the degridder, in both precisions, on the same item shape: the tile
// height sets how many pixels share each (t, c)'s lane fold, and how
// many tiles the item offers to parallel workers.
func BenchmarkAblationDegridTileRows(b *testing.B) {
	const sg, nt, nc = 24, 64, 8
	item, uvw, _, _ := tilingItem(11, nt, nc)
	in, _ := randomSubgrid(sg, item, 12)
	vis := make([]xmath.Matrix2, nt*nc)
	for _, prec := range []Precision{Float64, Float32} {
		for _, tr := range []int{1, 2, 4, 8, 24} {
			b.Run(fmt.Sprintf("%v/rows=%d", prec, tr), func(b *testing.B) {
				k := tilingKernels(b, sg, nc, func(p *Params) { p.Precision, p.pixelTileRows = prec, tr })
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.DegridSubgrid(item, in, uvw, nil, nil, vis)
				}
				b.ReportMetric(float64(b.N)*float64(item.NrVisibilities())/b.Elapsed().Seconds()/1e6, "MVis/s")
			})
		}
	}
}

// BenchmarkAblationVisBlocking sweeps the visibility-block depth
// (time steps per cache block); steps=64 covers the item's whole time
// range (no blocking).
func BenchmarkAblationVisBlocking(b *testing.B) {
	for _, bl := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("steps=%d", bl), func(b *testing.B) {
			runGridderAblation(b, 8, func(p *Params) { p.visBlockTimesteps = bl })
		})
	}
}
