// Package wproj implements W-projection gridding (Cornwell et al.),
// the traditional algorithm IDG is compared against in Section VI-E of
// the paper (there called WPG, after Romein's GPU implementation). A
// visibility is convolved onto the grid with an oversampled W-kernel:
// the Fourier transform of the taper times the w phase screen
// exp(-2*pi*i*w*n(l,m)). Kernels are precomputed per W-plane; their
// size N_W x N_W and the oversampling factor (8 in the paper) make the
// kernel set the large multi-dimensional data structure whose cost IDG
// avoids.
package wproj

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/sky"
	"repro/internal/taper"
	"repro/internal/xmath"
)

// Config describes a W-projection gridder.
type Config struct {
	// GridSize is the grid dimension in pixels.
	GridSize int
	// ImageSize is the field of view in direction cosines.
	ImageSize float64
	// Support is the kernel size N_W in uv cells (an even number).
	Support int
	// Oversampling is the number of kernel samples per uv cell
	// (8 in the paper's WPG configuration).
	Oversampling int
	// WStepLambda is the W-plane spacing in wavelengths; kernels are
	// computed per plane. 0 means a single w=0 kernel (pure
	// convolutional gridding, no w correction).
	WStepLambda float64
	// MaxWLambda bounds |w|; determines how many kernels are built.
	MaxWLambda float64
	// Taper is the image-domain anti-aliasing window; nil selects the
	// prolate spheroidal.
	Taper func(nu float64) float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.GridSize < 2:
		return fmt.Errorf("wproj: grid size %d too small", c.GridSize)
	case c.ImageSize <= 0:
		return fmt.Errorf("wproj: image size must be positive")
	case c.Support < 4 || c.Support%2 != 0:
		return fmt.Errorf("wproj: support %d must be even and >= 4", c.Support)
	case c.Oversampling < 1:
		return fmt.Errorf("wproj: oversampling %d must be >= 1", c.Oversampling)
	case c.WStepLambda < 0 || c.MaxWLambda < 0:
		return fmt.Errorf("wproj: negative w parameters")
	}
	if c.WStepLambda > 0 {
		if planes := int(c.MaxWLambda/c.WStepLambda) + 1; planes > 1024 {
			return fmt.Errorf("wproj: %d W-planes exceed the 1024 limit (this memory blow-up is what IDG avoids)", planes)
		}
	}
	return nil
}

// kernel holds one W-plane's oversampled convolution function as a
// fine uv-sampled array; tap values for a fractional offset are read
// with stride Oversampling.
type kernel struct {
	fineN  int
	center int
	data   []complex128
}

// Gridder grids and degrids visibilities with W-projection.
type Gridder struct {
	cfg     Config
	kernels map[int]*kernel // by W-plane index (w >= 0; negative w uses conjugate symmetry)
	norm    float64         // global kernel normalization
}

// NewGridder precomputes the kernels for all W-planes.
func NewGridder(cfg Config) (*Gridder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Taper == nil {
		cfg.Taper = taper.Spheroidal
	}
	g := &Gridder{cfg: cfg, kernels: make(map[int]*kernel)}
	nPlanes := 1
	if cfg.WStepLambda > 0 {
		nPlanes = int(cfg.MaxWLambda/cfg.WStepLambda) + 2
	}
	for p := 0; p < nPlanes; p++ {
		w := float64(p) * cfg.WStepLambda
		g.kernels[p] = g.computeKernel(w)
	}
	// Normalize all kernels by the zero-offset tap sum of the w=0
	// kernel, scaled so the effective image-domain weighting equals
	// the taper itself (as in the IDG pipeline): then the standard
	// taper correction applies unchanged to W-projection images.
	g.norm = 1
	sum := g.tapSum(g.kernels[0], 0, 0)
	if sum == 0 {
		return nil, fmt.Errorf("wproj: degenerate kernel")
	}
	g.norm = cfg.Taper(0) * cfg.Taper(0) / sum
	return g, nil
}

// Support returns the kernel support N_W.
func (g *Gridder) Support() int { return g.cfg.Support }

// NrWPlanes returns the number of precomputed kernels.
func (g *Gridder) NrWPlanes() int { return len(g.kernels) }

// KernelBytes returns the total kernel storage in bytes — the memory
// cost Section VI-E highlights.
func (g *Gridder) KernelBytes() int64 {
	var total int64
	for _, k := range g.kernels {
		total += int64(len(k.data)) * 16
	}
	return total
}

// computeKernel builds the oversampled kernel for w (wavelengths): the
// centered FFT of taper(l,m) * exp(-2*pi*i*w*n(l,m)) sampled over the
// field of view, zero-padded by the oversampling factor.
func (g *Gridder) computeKernel(w float64) *kernel {
	nw, ov := g.cfg.Support, g.cfg.Oversampling
	m := 2 * nw // image-domain resolution: twice the kernel support
	s := m * ov // padded FFT size
	screen := make([]complex128, s*s)
	// One batched sincos evaluation per screen row: stage the row's
	// phases (zero for pixels outside the unit sphere, skipped on the
	// consume pass), evaluate lane-parallel, then apply the taper. Unlike
	// the IDG kernels' phases, the screen phase -2*pi*w*n(l,m) is not
	// affine in the pixel index (n is a square root of l and m), so no
	// rotation recurrence can replace an evaluation.
	args := make([]float64, m)
	sins := make([]float64, m)
	coss := make([]float64, m)
	for y := 0; y < m; y++ {
		nuY := float64(y-m/2) / float64(m/2)
		mm := nuY * g.cfg.ImageSize / 2
		for x := 0; x < m; x++ {
			nuX := float64(x-m/2) / float64(m/2)
			ll := nuX * g.cfg.ImageSize / 2
			args[x] = 0
			if ll*ll+mm*mm < 1 {
				args[x] = -2 * math.Pi * w * sky.N(ll, mm)
			}
		}
		xmath.SincosVec(sins, coss, args)
		for x := 0; x < m; x++ {
			nuX := float64(x-m/2) / float64(m/2)
			ll := nuX * g.cfg.ImageSize / 2
			if ll*ll+mm*mm >= 1 {
				continue
			}
			tap := g.cfg.Taper(nuX) * g.cfg.Taper(nuY)
			// Embed centered in the padded array.
			sy := y - m/2 + s/2
			sx := x - m/2 + s/2
			screen[sy*s+sx] = complex(tap*coss[x], tap*sins[x])
		}
	}
	// Every W-plane shares the same screen size; the cached plan keeps
	// one twiddle/scratch set across all planes and evaluators.
	plan := fft.CachedPlan2D(s, s)
	plan.ForwardCentered(screen)
	// Keep the central fine region needed at grid time:
	// |dx*ov - ox| <= nw/2*ov + ov.
	half := nw/2*ov + ov
	fineN := 2*half + 1
	k := &kernel{fineN: fineN, center: half}
	k.data = make([]complex128, fineN*fineN)
	for y := 0; y < fineN; y++ {
		for x := 0; x < fineN; x++ {
			k.data[y*fineN+x] = screen[(y-half+s/2)*s+(x-half+s/2)]
		}
	}
	return k
}

// tap returns the kernel value for integer tap (dx, dy) at fine
// offsets (ox, oy) in [-ov/2, ov/2].
func (k *kernel) tap(dx, dy, ox, oy, ov int) complex128 {
	ix := k.center + dx*ov - ox
	iy := k.center + dy*ov - oy
	return k.data[iy*k.fineN+ix]
}

// tapSum sums the integer taps of a kernel at a fine offset.
func (g *Gridder) tapSum(k *kernel, ox, oy int) float64 {
	nw, ov := g.cfg.Support, g.cfg.Oversampling
	var sum complex128
	for dy := -nw / 2; dy < nw/2; dy++ {
		for dx := -nw / 2; dx < nw/2; dx++ {
			sum += k.tap(dx, dy, ox, oy, ov)
		}
	}
	return math.Hypot(real(sum), imag(sum)) * g.norm
}

// selectKernel picks the W-plane kernel for w and reports whether the
// conjugate must be used (negative w exploits K_{-w} = conj(K_w)).
func (g *Gridder) selectKernel(w float64) (*kernel, bool) {
	conjugate := w < 0
	if w < 0 {
		w = -w
	}
	p := 0
	if g.cfg.WStepLambda > 0 {
		p = int(math.Round(w / g.cfg.WStepLambda))
	}
	k, ok := g.kernels[p]
	if !ok {
		// Clamp to the outermost plane.
		k = g.kernels[len(g.kernels)-1]
	}
	return k, conjugate
}

// uvToPixel converts u (wavelengths) to fractional grid pixels.
func (g *Gridder) uvToPixel(u float64) (i0, off int, ok bool) {
	ov := g.cfg.Oversampling
	up := u*g.cfg.ImageSize + float64(g.cfg.GridSize)/2
	i0 = int(math.Round(up))
	off = int(math.Round((up - float64(i0)) * float64(ov)))
	half := g.cfg.Support / 2
	if i0-half < 0 || i0+half > g.cfg.GridSize {
		return 0, 0, false
	}
	return i0, off, true
}

// Grid convolves one visibility onto the grid; it reports whether the
// visibility fell inside the grid. u, v, w are in wavelengths.
// Gridding uses the conjugate kernel (the adjoint of degridding), so
// that imaging removes the w phase instead of doubling it.
func (g *Gridder) Grid(u, v, w float64, vis xmath.Matrix2, dst *grid.Grid) bool {
	if dst.N != g.cfg.GridSize {
		panic("wproj: grid size mismatch")
	}
	iu, ox, ok := g.uvToPixel(u)
	if !ok {
		return false
	}
	iv, oy, ok := g.uvToPixel(v)
	if !ok {
		return false
	}
	k, conjugate := g.selectKernel(w)
	nw, ov := g.cfg.Support, g.cfg.Oversampling
	n := dst.N
	norm := complex(g.norm, 0)
	for dy := -nw / 2; dy < nw/2; dy++ {
		gy := iv + dy
		for dx := -nw / 2; dx < nw/2; dx++ {
			gx := iu + dx
			t := k.tap(dx, dy, ox, oy, ov)
			// Gridding kernel: conj(K_w); for negative w the kernel is
			// conj(K_{|w|}), so the two conjugations cancel.
			if !conjugate {
				t = complex(real(t), -imag(t))
			}
			t *= norm
			i := gy*n + gx
			dst.Data[0][i] += t * vis[0]
			dst.Data[1][i] += t * vis[1]
			dst.Data[2][i] += t * vis[2]
			dst.Data[3][i] += t * vis[3]
		}
	}
	return true
}

// Degrid predicts one visibility from the grid by convolution with the
// W-kernel. It returns the zero matrix for points off the grid.
func (g *Gridder) Degrid(u, v, w float64, src *grid.Grid) (xmath.Matrix2, bool) {
	if src.N != g.cfg.GridSize {
		panic("wproj: grid size mismatch")
	}
	iu, ox, ok := g.uvToPixel(u)
	if !ok {
		return xmath.Matrix2{}, false
	}
	iv, oy, ok := g.uvToPixel(v)
	if !ok {
		return xmath.Matrix2{}, false
	}
	k, conjugate := g.selectKernel(w)
	nw, ov := g.cfg.Support, g.cfg.Oversampling
	n := src.N
	var out xmath.Matrix2
	for dy := -nw / 2; dy < nw/2; dy++ {
		gy := iv + dy
		for dx := -nw / 2; dx < nw/2; dx++ {
			gx := iu + dx
			t := k.tap(dx, dy, ox, oy, ov)
			if conjugate {
				t = complex(real(t), -imag(t))
			}
			i := gy*n + gx
			out[0] += t * src.Data[0][i]
			out[1] += t * src.Data[1][i]
			out[2] += t * src.Data[2][i]
			out[3] += t * src.Data[3][i]
		}
	}
	norm := complex(g.norm, 0)
	return xmath.Matrix2{out[0] * norm, out[1] * norm, out[2] * norm, out[3] * norm}, true
}
