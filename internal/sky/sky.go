// Package sky provides synthetic sky models and the direct (slow)
// evaluation of the measurement equation. The direct predictor is the
// ground truth the IDG pipeline is validated against: it evaluates
// Eq. (1) of the paper exactly for point-source skies,
//
//	V_pq = sum_s A_p B_s A_q^H exp(-2*pi*i*(u*l_s + v*m_s + w*n_s)),
//
// with n = 1 - sqrt(1 - l^2 - m^2) and uvw in wavelengths.
package sky

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/xmath"
)

// PointSource is a point source at direction cosines (L, M) relative
// to the phase center, with a Stokes flux description.
type PointSource struct {
	L, M float64 // direction cosines
	I    float64 // total intensity, Jy
	Q    float64 // linear polarization
	U    float64
	V    float64 // circular polarization
}

// Brightness returns the 2x2 coherency (brightness) matrix of the
// source for linear feeds:
//
//	| I+Q   U+iV |
//	| U-iV  I-Q  |
func (s PointSource) Brightness() xmath.Matrix2 {
	return xmath.Matrix2{
		complex(s.I+s.Q, 0), complex(s.U, s.V),
		complex(s.U, -s.V), complex(s.I-s.Q, 0),
	}
}

// N returns the paper's n coordinate, 1 - sqrt(1 - l^2 - m^2). It
// panics if (l, m) lies outside the unit circle (not a physical
// direction).
func N(l, m float64) float64 {
	r2 := l*l + m*m
	if r2 > 1 {
		panic(fmt.Sprintf("sky: direction (%g, %g) outside the unit sphere", l, m))
	}
	// Written as r2/(1+sqrt(1-r2)) for accuracy at small offsets.
	return r2 / (1 + math.Sqrt(1-r2))
}

// Model is a collection of point sources.
type Model []PointSource

// TotalFlux returns the summed Stokes I flux.
func (m Model) TotalFlux() float64 {
	var f float64
	for _, s := range m {
		f += s.I
	}
	return f
}

// Predict evaluates the measurement equation without direction
// dependent effects for a single uvw coordinate in wavelengths.
func (m Model) Predict(u, v, w float64) xmath.Matrix2 {
	var out xmath.Matrix2
	for _, s := range m {
		phase := -2 * math.Pi * (u*s.L + v*s.M + w*N(s.L, s.M))
		sin, cos := math.Sincos(phase)
		out = out.Add(s.Brightness().Scale(complex(cos, sin)))
	}
	return out
}

// Predictor is a Model prepared for many predictions: each source's n
// coordinate and brightness matrix are computed once instead of per
// sample. Predict returns bit for bit what Model.Predict returns — the
// phase expression, math.Sincos, the scaling and the source-order sum
// are the same operations on the same values — so data sets filled
// through either are interchangeable. A Predictor is read-only after
// construction and safe for concurrent use.
type Predictor []predictorSource

type predictorSource struct {
	l, m, n float64
	b       xmath.Matrix2
}

// Predictor prepares the model. Like Predict, it panics if a source
// lies outside the unit circle.
func (m Model) Predictor() Predictor {
	p := make(Predictor, len(m))
	for i, s := range m {
		p[i] = predictorSource{l: s.L, m: s.M, n: N(s.L, s.M), b: s.Brightness()}
	}
	return p
}

// Predict is Model.Predict on the prepared sources.
func (p Predictor) Predict(u, v, w float64) xmath.Matrix2 {
	var out xmath.Matrix2
	for i := range p {
		s := &p[i]
		phase := -2 * math.Pi * (u*s.l + v*s.m + w*s.n)
		sin, cos := math.Sincos(phase)
		out = out.Add(s.b.Scale(complex(cos, sin)))
	}
	return out
}

// PredictWithATerms evaluates the measurement equation including the
// direction-dependent station responses ap and aq, which are sampled
// at each source direction via the provided lookup.
func (m Model) PredictWithATerms(u, v, w float64, aterm func(l, mm float64) (ap, aq xmath.Matrix2)) xmath.Matrix2 {
	var out xmath.Matrix2
	for _, s := range m {
		ap, aq := aterm(s.L, s.M)
		phase := -2 * math.Pi * (u*s.L + v*s.M + w*N(s.L, s.M))
		sin, cos := math.Sincos(phase)
		corrected := s.Brightness().SandwichH(ap, aq)
		out = out.Add(corrected.Scale(complex(cos, sin)))
	}
	return out
}

// RandomField places n unpolarized sources of unit-order flux inside
// a disc of radius maxRadius (direction cosines), deterministically
// from the seed. It is used by the benchmark workload generators.
func RandomField(n int, maxRadius float64, seed int64) Model {
	// Small linear congruential generator keeps the package free of
	// math/rand state while staying deterministic.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	m := make(Model, n)
	for i := range m {
		r := maxRadius * math.Sqrt(next())
		phi := 2 * math.Pi * next()
		m[i] = PointSource{
			L: r * math.Cos(phi),
			M: r * math.Sin(phi),
			I: 0.1 + next(),
		}
	}
	return m
}

// Rasterize paints the model onto an n x n image covering imageSize
// direction cosines, nearest-pixel, returning the four correlation
// planes as a grid.Grid in image space. Pixel (x, y) corresponds to
//
//	l = (x - n/2) * imageSize / n,  m = (y - n/2) * imageSize / n.
func (m Model) Rasterize(n int, imageSize float64) *grid.Grid {
	img := grid.NewGrid(n)
	for _, s := range m {
		x := int(math.Round(s.L*float64(n)/imageSize)) + n/2
		y := int(math.Round(s.M*float64(n)/imageSize)) + n/2
		if x < 0 || x >= n || y < 0 || y >= n {
			continue
		}
		b := s.Brightness()
		img.Add(0, y, x, b[0])
		img.Add(1, y, x, b[1])
		img.Add(2, y, x, b[2])
		img.Add(3, y, x, b[3])
	}
	return img
}

// PixelToLM converts image pixel indices to direction cosines for an
// n-pixel image covering imageSize.
func PixelToLM(x, y, n int, imageSize float64) (l, m float64) {
	scale := imageSize / float64(n)
	return float64(x-n/2) * scale, float64(y-n/2) * scale
}

// LMToPixel is the inverse of PixelToLM, rounding to the nearest pixel.
func LMToPixel(l, m float64, n int, imageSize float64) (x, y int) {
	scale := float64(n) / imageSize
	return int(math.Round(l*scale)) + n/2, int(math.Round(m*scale)) + n/2
}

// StokesI extracts the Stokes I image, (XX + YY)/2, from a correlation
// grid in image space.
func StokesI(img *grid.Grid) []float64 {
	out := make([]float64, img.N*img.N)
	for i := range out {
		out[i] = 0.5 * (real(img.Data[0][i]) + real(img.Data[3][i]))
	}
	return out
}
