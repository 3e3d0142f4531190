// Package clean implements Högbom CLEAN deconvolution and image
// restoration. The paper's imaging cycle (Fig. 2) alternates gridding
// and an inverse FFT with a "variant of the CLEAN algorithm" that
// extracts bright sources into the sky model, whose visibilities are
// then predicted (degridded) and subtracted. This package provides
// that variant for the example imager.
package clean

import (
	"errors"
	"fmt"
	"math"
)

// Params configures a CLEAN run.
type Params struct {
	// Gain is the loop gain: the fraction of the peak removed per
	// iteration (typically 0.1).
	Gain float64
	// MaxIterations bounds the minor cycle count.
	MaxIterations int
	// Threshold stops cleaning when the absolute peak of the residual
	// falls below it.
	Threshold float64
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	switch {
	case p.Gain <= 0 || p.Gain > 1:
		return fmt.Errorf("clean: gain %g outside (0, 1]", p.Gain)
	case p.MaxIterations < 1:
		return fmt.Errorf("clean: max iterations %d < 1", p.MaxIterations)
	case p.Threshold < 0:
		return fmt.Errorf("clean: negative threshold %g", p.Threshold)
	}
	return nil
}

// Component is one CLEAN component: a delta function at an image pixel.
type Component struct {
	X, Y int
	Flux float64
}

// Result holds the outcome of a CLEAN run.
type Result struct {
	// Components lists the extracted deltas (one per iteration; the
	// same pixel may appear multiple times).
	Components []Component
	// Model is the component image (sum of deltas).
	Model []float64
	// Residual is the dirty image after subtraction.
	Residual []float64
	// Iterations is the number of minor cycles executed.
	Iterations int
	// FinalPeak is the residual's absolute peak at termination.
	FinalPeak float64
}

// ErrPSFSidelobe marks a PSF with a pixel brighter (in absolute value)
// than its centre. Subtracting such a PSF raises the residual peak
// instead of lowering it, so CLEAN would diverge to NaN.
var ErrPSFSidelobe = errors.New("clean: PSF sidelobe exceeds its centre")

// Hogbom runs Högbom CLEAN on a dirty image with the given PSF. Both
// images are n x n, row-major; the PSF must peak (value ~1) at its
// center pixel (n/2, n/2), and no pixel may exceed the centre in
// absolute value (ErrPSFSidelobe). The dirty image is not modified.
func Hogbom(dirty, psf []float64, n int, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(dirty) != n*n || len(psf) != n*n {
		return nil, fmt.Errorf("clean: image size mismatch: dirty %d, psf %d, want %d", len(dirty), len(psf), n*n)
	}
	center := (n/2)*n + n/2
	if math.Abs(psf[center]-1) > 0.1 {
		return nil, errors.New("clean: PSF must be normalized to ~1 at its center")
	}
	for i, v := range psf {
		if math.Abs(v) > psf[center] {
			return nil, fmt.Errorf("%w: |PSF| %.3g at pixel (%d,%d), centre %.3g",
				ErrPSFSidelobe, math.Abs(v), i%n, i/n, psf[center])
		}
	}
	res := &Result{
		Model:    make([]float64, n*n),
		Residual: append([]float64(nil), dirty...),
	}
	for iter := 0; iter < p.MaxIterations; iter++ {
		// Find the absolute peak.
		px, peak := 0, 0.0
		for i, v := range res.Residual {
			if a := math.Abs(v); a > peak {
				peak, px = a, i
			}
		}
		res.FinalPeak = peak
		if peak <= p.Threshold {
			return res, nil
		}
		x, y := px%n, px/n
		flux := p.Gain * res.Residual[px]
		res.Components = append(res.Components, Component{X: x, Y: y, Flux: flux})
		res.Model[px] += flux
		subtractShiftedPSF(res.Residual, psf, n, x, y, flux)
		res.Iterations = iter + 1
	}
	// Recompute the final peak after the last subtraction.
	res.FinalPeak = absPeak(res.Residual)
	return res, nil
}

func absPeak(img []float64) float64 {
	m := 0.0
	for _, v := range img {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// subtractShiftedPSF subtracts flux * PSF centered at (x, y) from img.
func subtractShiftedPSF(img, psf []float64, n, x, y int, flux float64) {
	// PSF pixel (px, py) corresponds to offset (px - n/2, py - n/2).
	for py := 0; py < n; py++ {
		iy := y + py - n/2
		if iy < 0 || iy >= n {
			continue
		}
		rowImg := iy * n
		rowPSF := py * n
		for px := 0; px < n; px++ {
			ix := x + px - n/2
			if ix < 0 || ix >= n {
				continue
			}
			img[rowImg+ix] -= flux * psf[rowPSF+px]
		}
	}
}

// Restore convolves the CLEAN components with a circular Gaussian beam
// of the given standard deviation (in pixels) and adds the residual,
// producing the restored image.
func Restore(res *Result, n int, beamSigma float64) []float64 {
	if beamSigma <= 0 {
		panic(fmt.Sprintf("clean: beam sigma %g must be positive", beamSigma))
	}
	out := append([]float64(nil), res.Residual...)
	// Evaluate the beam out to 5 sigma.
	r := int(5*beamSigma) + 1
	inv := 1 / (2 * beamSigma * beamSigma)
	for _, c := range res.Components {
		for dy := -r; dy <= r; dy++ {
			y := c.Y + dy
			if y < 0 || y >= n {
				continue
			}
			for dx := -r; dx <= r; dx++ {
				x := c.X + dx
				if x < 0 || x >= n {
					continue
				}
				out[y*n+x] += c.Flux * math.Exp(-float64(dx*dx+dy*dy)*inv)
			}
		}
	}
	return out
}

// MergedComponents sums components that landed on the same pixel,
// which is the compact sky-model form handed to the predict step.
func (r *Result) MergedComponents() []Component {
	sums := make(map[[2]int]float64)
	for _, c := range r.Components {
		sums[[2]int{c.X, c.Y}] += c.Flux
	}
	out := make([]Component, 0, len(sums))
	for k, f := range sums {
		out = append(out, Component{X: k[0], Y: k[1], Flux: f})
	}
	return out
}
