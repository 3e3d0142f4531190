package core

import (
	"math"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/sky"
	"repro/internal/taper"
)

// GridToImage converts a uv grid to a sky image (per correlation) with
// the centered inverse FFT — the "inverse FFT" box of Fig. 2. The
// grid is left untouched; the returned image is in the same 4-plane
// layout, written by the transform itself (no copy pass first).
// Workers <= 0 uses GOMAXPROCS.
func GridToImage(g *grid.Grid, workers int) *grid.Grid {
	img := grid.NewGrid(g.N)
	p := fft.CachedPlan2D(g.N, g.N)
	for c := 0; c < grid.NrCorrelations; c++ {
		p.InverseCenteredParallel(img.Data[c], g.Data[c], workers)
	}
	return img
}

// ImageToGrid converts a sky image to a uv grid with the centered
// forward FFT — the "FFT" box on the predict side of Fig. 2.
func ImageToGrid(img *grid.Grid, workers int) *grid.Grid {
	g := grid.NewGrid(img.N)
	p := fft.CachedPlan2D(img.N, img.N)
	for c := 0; c < grid.NrCorrelations; c++ {
		p.ForwardCenteredParallel(g.Data[c], img.Data[c], workers)
	}
	return g
}

// TaperCorrection returns the image-domain correction map for the
// kernels' taper, evaluated at full image resolution: dividing the
// dirty image by the taper undoes the subgrid windowing (the "simple
// correction" in the paper's gridding definition). Pixels where the
// taper falls below 1e-4 of its peak are blanked.
func (k *Kernels) TaperCorrection(n int) []float64 {
	tf := k.params.Taper
	if tf == nil {
		tf = taper.Spheroidal
	}
	w := taper.Window2D(n, tf)
	peak := w[(n/2)*n+n/2]
	return taper.CorrectionMap(w, 1e-4*peak)
}

// ApplyTaperCorrection multiplies every correlation plane of the image
// by the correction map in place.
func ApplyTaperCorrection(img *grid.Grid, corr []float64) {
	if len(corr) != img.N*img.N {
		panic("core: correction map size mismatch")
	}
	for c := 0; c < grid.NrCorrelations; c++ {
		for i, v := range img.Data[c] {
			img.Data[c][i] = v * complex(corr[i], 0)
		}
	}
}

// ScaleImage multiplies all planes by s, e.g. 1/totalWeight to
// normalize a dirty image by the number of gridded visibilities.
func ScaleImage(img *grid.Grid, s float64) {
	c := complex(s, 0)
	for p := 0; p < grid.NrCorrelations; p++ {
		for i := range img.Data[p] {
			img.Data[p][i] *= c
		}
	}
}

// ApplyWScreen multiplies the image by exp(+sign * 2*pi*i * w * n(l,m))
// for the given w offset in wavelengths; this is the per-layer
// correction used by W-stacking. imageSize is the field of view of the
// image.
func ApplyWScreen(img *grid.Grid, imageSize, w float64, sign float64) {
	n := img.N
	pixel := imageSize / float64(n)
	for y := 0; y < n; y++ {
		mv := float64(y-n/2) * pixel
		for x := 0; x < n; x++ {
			lv := float64(x-n/2) * pixel
			phase := sign * twoPi * w * sky.N(lv, mv)
			sin, cos := math.Sincos(phase)
			ph := complex(cos, sin)
			i := y*n + x
			for c := 0; c < grid.NrCorrelations; c++ {
				img.Data[c][i] *= ph
			}
		}
	}
}
