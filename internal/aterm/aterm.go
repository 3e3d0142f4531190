// Package aterm models the direction-dependent effects (DDEs) the
// paper calls A-terms: per-station 2x2 Jones matrices that vary over
// the field of view and change slowly with time (the benchmark dataset
// updates them every 256 time steps). IDG applies them as plain
// per-pixel multiplications in the image domain, which is the central
// advantage over AW-projection.
package aterm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/xmath"
)

// Provider evaluates the Jones response of a station towards direction
// (l, m) during A-term slot. Implementations must be deterministic and
// safe for concurrent use.
type Provider interface {
	// Evaluate returns the Jones matrix of the given station for
	// A-term time slot and direction cosines (l, m).
	Evaluate(station, slot int, l, m float64) xmath.Matrix2
}

// Scheduler maps time steps to A-term slots: the paper updates the
// A-terms every UpdateInterval time steps.
type Scheduler struct {
	// UpdateInterval is the number of time steps per A-term slot
	// (256 in the paper's dataset).
	UpdateInterval int
}

// Slot returns the A-term slot index of time step t.
func (s Scheduler) Slot(t int) int {
	if s.UpdateInterval <= 0 {
		return 0
	}
	return t / s.UpdateInterval
}

// NrSlots returns the number of slots needed for nrTimesteps.
func (s Scheduler) NrSlots(nrTimesteps int) int {
	if s.UpdateInterval <= 0 {
		return 1
	}
	return (nrTimesteps + s.UpdateInterval - 1) / s.UpdateInterval
}

// Identity is the trivial provider: all stations respond with the unit
// matrix ("for simplicity, all set to identity", Section VI-A). The
// computational cost of IDG is unchanged, which is the point the paper
// makes about DDE corrections being nearly free.
type Identity struct{}

// Evaluate implements Provider.
func (Identity) Evaluate(int, int, float64, float64) xmath.Matrix2 {
	return xmath.Identity2()
}

// GaussianBeam models a station power beam: a real amplitude taper
// exp(-(l^2+m^2)/(2 sigma^2)) on both feeds, with a per-station,
// per-slot pointing wobble. Sigma is expressed in direction cosines.
type GaussianBeam struct {
	Sigma float64
	// Wobble is the pointing jitter amplitude in direction cosines;
	// station s in slot k points at a deterministic offset within
	// [-Wobble, Wobble]^2.
	Wobble float64
}

// Evaluate implements Provider.
func (g GaussianBeam) Evaluate(station, slot int, l, m float64) xmath.Matrix2 {
	if g.Sigma <= 0 {
		panic(fmt.Sprintf("aterm: GaussianBeam sigma must be positive, got %g", g.Sigma))
	}
	dl, dm := hash2(station, slot)
	l -= g.Wobble * dl
	m -= g.Wobble * dm
	a := math.Exp(-(l*l + m*m) / (2 * g.Sigma * g.Sigma))
	c := complex(a, 0)
	return xmath.Matrix2{c, 0, 0, c}
}

// PhaseScreen models ionospheric-like propagation: a per-station phase
// gradient over the field of view, exp(i*(a*l + b*m)), with gradients
// that drift from slot to slot. The gradient strength is expressed in
// radians per direction cosine.
type PhaseScreen struct {
	// Strength scales the phase gradients (radians per unit l).
	Strength float64
}

// Evaluate implements Provider.
func (p PhaseScreen) Evaluate(station, slot int, l, m float64) xmath.Matrix2 {
	a, b := hash2(station, slot)
	phase := p.Strength * (a*l + b*m)
	sin, cos := math.Sincos(phase)
	c := complex(cos, sin)
	return xmath.Matrix2{c, 0, 0, c}
}

// hash2 produces two deterministic values in [-1, 1] from a station
// and slot index (a cheap counter-mode hash; no package state).
func hash2(station, slot int) (float64, float64) {
	x := uint64(station)*0x9e3779b97f4a7c15 ^ uint64(slot)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	a := float64(x&0xffffffff)/float64(1<<31) - 1
	b := float64(x>>32)/float64(1<<31) - 1
	return a, b
}

// sample evaluates a provider over an n x n subgrid covering imageSize
// direction cosines, handing put the matrix of pixel i = y*n+x.
func sample(p Provider, station, slot, n int, imageSize float64, put func(i int, m xmath.Matrix2)) {
	scale := imageSize / float64(n)
	for y := 0; y < n; y++ {
		m := float64(y-n/2) * scale
		for x := 0; x < n; x++ {
			l := float64(x-n/2) * scale
			put(y*n+x, p.Evaluate(station, slot, l, m))
		}
	}
}

// Map samples a provider over an n x n subgrid covering imageSize
// direction cosines; the result is indexed [y*n+x] and is what the
// apply_aterm step of Algorithms 1 and 2 consumes.
func Map(p Provider, station, slot, n int, imageSize float64) []xmath.Matrix2 {
	out := make([]xmath.Matrix2, n*n)
	sample(p, station, slot, n, imageSize, func(i int, m xmath.Matrix2) { out[i] = m })
	return out
}

// Planes lays the Jones map m out as eight planes of len(m) values in
// dst and returns them: the real and imaginary parts of the four
// components in Matrix2 order, plane j at dst[j*len(m):(j+1)*len(m)].
// A register of consecutive pixels of one component is then one load,
// which is how core's vector tiles read the A-terms.
func Planes(dst []float64, m []xmath.Matrix2) []float64 {
	dst = dst[:8*len(m)]
	for i := range m {
		setPlanes(dst, i, m[i])
	}
	return dst
}

func setPlanes(planes []float64, i int, m xmath.Matrix2) {
	n := len(planes) / 8
	for j, v := range m {
		planes[2*j*n+i], planes[(2*j+1)*n+i] = real(v), imag(v)
	}
}

// Cache memoizes Map results per (station, slot); the gridder reuses
// the same maps for every subgrid of a work group that shares the slot.
// A cache holds every map in one layout: per-pixel matrices (NewCache,
// read with Get) or planes (NewPlanarCache, read with Planes). Cache is
// not safe for concurrent writes; each worker builds its own or the
// caller prefills it (Fill) before fanning out.
type Cache struct {
	provider  Provider
	n         int
	imageSize float64
	planar    bool
	maps      map[[2]int]jonesMap
}

// jonesMap is one cached map: pixels or planes, by the cache's layout.
type jonesMap struct {
	pixels []xmath.Matrix2
	planes []float64
}

// NewCache builds a cache for subgrids of size n covering imageSize.
func NewCache(p Provider, n int, imageSize float64) *Cache {
	return &Cache{
		provider:  p,
		n:         n,
		imageSize: imageSize,
		maps:      make(map[[2]int]jonesMap),
	}
}

// NewPlanarCache is NewCache with the maps held as planes (Planes).
func NewPlanarCache(p Provider, n int, imageSize float64) *Cache {
	c := NewCache(p, n, imageSize)
	c.planar = true
	return c
}

// slabMaps is how many maps alloc cuts from one allocation: hundreds of
// separate 36 KB allocations in a fill cost more than evaluating into
// them, while one slab for a whole pass (28 MB on the benchmark's sparse
// workload) is a span the next pass's cache cannot reuse piecemeal and
// showed as 7 MB of peak RSS.
const slabMaps = 32

// alloc returns count empty maps in the cache's layout.
func (c *Cache) alloc(count int) []jonesMap {
	maps, npix := make([]jonesMap, count), c.n*c.n
	for i0 := 0; i0 < count; i0 += slabMaps {
		part := maps[i0:min(i0+slabMaps, count)]
		if c.planar {
			slab := make([]float64, len(part)*8*npix)
			for i := range part {
				part[i].planes = slab[8*npix*i : 8*npix*(i+1) : 8*npix*(i+1)]
			}
		} else {
			slab := make([]xmath.Matrix2, len(part)*npix)
			for i := range part {
				part[i].pixels = slab[npix*i : npix*(i+1) : npix*(i+1)]
			}
		}
	}
	return maps
}

// eval evaluates the map of one (station, slot) into m.
func (c *Cache) eval(key [2]int, m jonesMap) {
	sample(c.provider, key[0], key[1], c.n, c.imageSize, func(i int, v xmath.Matrix2) {
		if m.planes != nil {
			setPlanes(m.planes, i, v)
		} else {
			m.pixels[i] = v
		}
	})
}

func (c *Cache) get(station, slot int) jonesMap {
	key := [2]int{station, slot}
	m, ok := c.maps[key]
	if !ok {
		m = c.alloc(1)[0]
		c.eval(key, m)
		c.maps[key] = m
	}
	return m
}

// Get returns the memoized A-term map for (station, slot).
func (c *Cache) Get(station, slot int) []xmath.Matrix2 { return c.get(station, slot).pixels }

// Planes returns the memoized planes of the A-term map for (station,
// slot) from a planar cache.
func (c *Cache) Planes(station, slot int) []float64 { return c.get(station, slot).planes }

// Fill evaluates the maps of those (station, slot) keys the cache does
// not hold yet on up to workers goroutines and inserts them, so that
// every later Get or Planes of one of keys is a read-only hit. It is a
// write: nothing else may use the cache while it runs.
func (c *Cache) Fill(keys [][2]int, workers int) {
	var missing [][2]int
	for _, key := range keys {
		if _, ok := c.maps[key]; !ok {
			c.maps[key] = jonesMap{} // claimed: a repeated key is evaluated once
			missing = append(missing, key)
		}
	}
	maps := c.alloc(len(missing))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(missing)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(missing); i = int(next.Add(1)) - 1 {
				c.eval(missing[i], maps[i])
			}
		}()
	}
	wg.Wait()
	for i, key := range missing {
		c.maps[key] = maps[i]
	}
}
