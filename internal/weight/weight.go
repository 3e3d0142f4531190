// Package weight implements imaging density weighting: natural,
// uniform, and Briggs robust weighting. The imaging step of Fig. 2
// grids *weighted* visibilities; the weighting scheme trades
// sensitivity (natural) against PSF sidelobe level and resolution
// (uniform), with robust weighting interpolating between them.
package weight

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/uvwsim"
)

// Scheme selects the weighting.
type Scheme int

const (
	// Natural weights every visibility equally (best sensitivity).
	Natural Scheme = iota
	// Uniform divides by the local uv sample density (best PSF).
	Uniform
	// Robust is Briggs weighting, steered by the Robust parameter.
	Robust
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Natural:
		return "natural"
	case Uniform:
		return "uniform"
	case Robust:
		return "robust"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Weights holds the computed per-cell weighting function.
type Weights struct {
	scheme    Scheme
	gridSize  int
	imageSize float64
	density   []float64
	// f2 is the Briggs robustness scale (Robust scheme only).
	f2 float64
}

// Config configures weight computation.
type Config struct {
	Scheme Scheme
	// Robust is the Briggs robustness parameter R in [-2, 2]; only
	// used by the Robust scheme (R=+2 approaches natural, R=-2
	// approaches uniform).
	Robust float64
	// GridSize and ImageSize define the density-counting grid (use
	// the imaging grid's values).
	GridSize  int
	ImageSize float64
}

// Compute builds the weighting function by counting uv samples per
// grid cell over all baselines, times and channels.
func Compute(cfg Config, tracks [][]uvwsim.UVW, freqs []float64) (*Weights, error) {
	if cfg.GridSize < 2 || cfg.ImageSize <= 0 {
		return nil, fmt.Errorf("weight: bad grid geometry %d/%g", cfg.GridSize, cfg.ImageSize)
	}
	if len(tracks) == 0 || len(freqs) == 0 {
		return nil, fmt.Errorf("weight: empty observation")
	}
	if cfg.Scheme == Robust && (cfg.Robust < -2 || cfg.Robust > 2) {
		return nil, fmt.Errorf("weight: robust parameter %g outside [-2, 2]", cfg.Robust)
	}
	w := &Weights{
		scheme:    cfg.Scheme,
		gridSize:  cfg.GridSize,
		imageSize: cfg.ImageSize,
		density:   make([]float64, cfg.GridSize*cfg.GridSize),
	}
	for _, track := range tracks {
		for _, c := range track {
			for _, f := range freqs {
				if i, ok := w.cell(c, f); ok {
					w.density[i]++
				}
			}
		}
	}
	if cfg.Scheme == Robust {
		// Briggs: f^2 = (5 * 10^-R)^2 / (sum rho^2 / sum rho).
		var sum, sum2 float64
		for _, d := range w.density {
			sum += d
			sum2 += d * d
		}
		if sum == 0 {
			return nil, fmt.Errorf("weight: no visibilities on the grid")
		}
		s := 5 * math.Pow(10, -cfg.Robust)
		w.f2 = s * s / (sum2 / sum)
	}
	return w, nil
}

// cell maps a uvw coordinate (meters) to a density-grid index.
func (w *Weights) cell(c uvwsim.UVW, freq float64) (int, bool) {
	s := freq / uvwsim.SpeedOfLight * w.imageSize
	x := int(math.Round(c.U*s)) + w.gridSize/2
	y := int(math.Round(c.V*s)) + w.gridSize/2
	if x < 0 || x >= w.gridSize || y < 0 || y >= w.gridSize {
		return 0, false
	}
	return y*w.gridSize + x, true
}

// For returns the weight of one visibility.
func (w *Weights) For(c uvwsim.UVW, freq float64) float64 {
	i, ok := w.cell(c, freq)
	if !ok {
		return 0
	}
	rho := w.density[i]
	switch w.scheme {
	case Natural:
		return 1
	case Uniform:
		if rho == 0 {
			return 0
		}
		return 1 / rho
	case Robust:
		return 1 / (1 + rho*w.f2)
	default:
		return 1
	}
}

// Apply multiplies the visibilities in place and returns the summed
// weight (the normalization the dirty image must divide by instead of
// the raw visibility count).
func Apply(vs *core.VisibilitySet, w *Weights, freqs []float64) float64 {
	var total float64
	for b := range vs.Data {
		for t := 0; t < vs.NrTimesteps; t++ {
			coord := vs.UVW[b][t]
			for c := 0; c < vs.NrChannels; c++ {
				wt := w.For(coord, freqs[c])
				total += wt
				f := complex(wt, 0)
				i := t*vs.NrChannels + c
				m := vs.Data[b][i]
				vs.Data[b][i] = m.Scale(f)
			}
		}
	}
	return total
}
