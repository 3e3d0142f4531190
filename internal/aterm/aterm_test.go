package aterm

import (
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"testing"

	"repro/internal/xmath"
)

func TestSchedulerSlots(t *testing.T) {
	s := Scheduler{UpdateInterval: 256}
	if s.Slot(0) != 0 || s.Slot(255) != 0 || s.Slot(256) != 1 || s.Slot(8191) != 31 {
		t.Fatal("slot mapping wrong")
	}
	if s.NrSlots(8192) != 32 {
		t.Fatalf("NrSlots(8192) = %d, want 32 (paper dataset)", s.NrSlots(8192))
	}
	if s.NrSlots(8193) != 33 {
		t.Fatalf("NrSlots(8193) = %d", s.NrSlots(8193))
	}
	// Degenerate interval: everything is one slot.
	z := Scheduler{}
	if z.Slot(100) != 0 || z.NrSlots(100) != 1 {
		t.Fatal("zero interval should collapse to one slot")
	}
}

func TestIdentityProvider(t *testing.T) {
	var p Identity
	m := p.Evaluate(3, 7, 0.01, -0.02)
	if m.MaxAbsDiff(xmath.Identity2()) != 0 {
		t.Fatal("identity provider not identity")
	}
}

func TestGaussianBeamPeakAndFalloff(t *testing.T) {
	p := GaussianBeam{Sigma: 0.05}
	center := p.Evaluate(0, 0, 0, 0)
	if d := center.MaxAbsDiff(xmath.Identity2()); d > 1e-12 {
		t.Fatalf("beam center gain = %v", center)
	}
	edge := p.Evaluate(0, 0, 0.05, 0)
	want := math.Exp(-0.5)
	if d := math.Abs(real(edge[0]) - want); d > 1e-12 {
		t.Fatalf("beam at sigma = %g, want %g", real(edge[0]), want)
	}
	// Off-diagonal terms are zero, diag equal (scalar beam).
	if edge[1] != 0 || edge[2] != 0 || edge[0] != edge[3] {
		t.Fatal("beam must be scalar")
	}
}

func TestGaussianBeamWobbleDeterministic(t *testing.T) {
	p := GaussianBeam{Sigma: 0.05, Wobble: 0.01}
	a := p.Evaluate(5, 3, 0.01, 0.01)
	b := p.Evaluate(5, 3, 0.01, 0.01)
	if a != b {
		t.Fatal("wobble not deterministic")
	}
	c := p.Evaluate(5, 4, 0.01, 0.01)
	if a == c {
		t.Fatal("expected different slots to wobble differently")
	}
}

func TestGaussianBeamInvalidSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GaussianBeam{}.Evaluate(0, 0, 0, 0)
}

func TestPhaseScreenUnitary(t *testing.T) {
	p := PhaseScreen{Strength: 100}
	for st := 0; st < 5; st++ {
		m := p.Evaluate(st, 2, 0.03, -0.01)
		// Scalar unimodular phase.
		if d := math.Abs(cmplx.Abs(m[0]) - 1); d > 1e-12 {
			t.Fatalf("|phase| = %g", cmplx.Abs(m[0]))
		}
		if m[1] != 0 || m[2] != 0 || m[0] != m[3] {
			t.Fatal("phase screen must be scalar")
		}
	}
}

func TestPhaseScreenZeroAtCenter(t *testing.T) {
	p := PhaseScreen{Strength: 50}
	m := p.Evaluate(9, 9, 0, 0)
	if d := m.MaxAbsDiff(xmath.Identity2()); d > 1e-12 {
		t.Fatal("phase at field center must be zero")
	}
}

func TestMapLayoutMatchesEvaluate(t *testing.T) {
	p := GaussianBeam{Sigma: 0.04}
	n := 8
	imageSize := 0.1
	m := Map(p, 1, 2, n, imageSize)
	if len(m) != n*n {
		t.Fatalf("map length %d", len(m))
	}
	scale := imageSize / float64(n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			want := p.Evaluate(1, 2, float64(x-n/2)*scale, float64(y-n/2)*scale)
			if m[y*n+x] != want {
				t.Fatalf("map(%d,%d) mismatch", x, y)
			}
		}
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache(PhaseScreen{Strength: 10}, 16, 0.1)
	a := c.Get(2, 3)
	b := c.Get(2, 3)
	if &a[0] != &b[0] {
		t.Fatal("cache did not memoize")
	}
	d := c.Get(2, 4)
	if &a[0] == &d[0] {
		t.Fatal("different slots must not share a map")
	}
}

// countingProvider counts Evaluate calls per (station, slot).
type countingProvider struct {
	PhaseScreen
	mu    sync.Mutex
	calls map[[2]int]int
}

func (p *countingProvider) Evaluate(station, slot int, l, m float64) xmath.Matrix2 {
	p.mu.Lock()
	p.calls[[2]int{station, slot}]++
	p.mu.Unlock()
	return p.PhaseScreen.Evaluate(station, slot, l, m)
}

// TestCacheFillBothLayouts: Fill on several goroutines evaluates every
// missing (station, slot) exactly once — repeated keys and keys already
// held included — and leaves what a serial Get or Planes would have:
// the same matrices, and in a planar cache their planes, component j of
// pixel i at planes[j*n*n+i].
func TestCacheFillBothLayouts(t *testing.T) {
	const n = 6
	var keys [][2]int
	for st := 0; st < 5; st++ {
		for slot := 0; slot < 3; slot++ {
			keys = append(keys, [2]int{st, slot}, [2]int{st, slot})
		}
	}
	for _, planar := range []bool{false, true} {
		prov := &countingProvider{PhaseScreen: PhaseScreen{Strength: 10}, calls: map[[2]int]int{}}
		c := NewCache(prov, n, 0.1)
		if planar {
			c = NewPlanarCache(prov, n, 0.1)
		}
		c.get(0, 0) // held before the fill
		c.Fill(keys, 4)
		c.Fill(keys, 4) // nothing left to do
		for key, calls := range prov.calls {
			if calls != n*n {
				t.Fatalf("planar=%v: map %v evaluated %d pixels, want %d", planar, key, calls, n*n)
			}
		}
		if len(prov.calls) != len(keys)/2 {
			t.Fatalf("planar=%v: %d maps evaluated, want %d", planar, len(prov.calls), len(keys)/2)
		}
		for _, key := range keys {
			want := Map(prov.PhaseScreen, key[0], key[1], n, 0.1)
			if !planar {
				for i, m := range c.Get(key[0], key[1]) {
					if m != want[i] {
						t.Fatalf("map %v pixel %d = %v, want %v", key, i, m, want[i])
					}
				}
				continue
			}
			planes := c.Planes(key[0], key[1])
			if len(planes) != 8*n*n {
				t.Fatalf("map %v: %d plane values, want %d", key, len(planes), 8*n*n)
			}
			for i, m := range want {
				for j, v := range m {
					if planes[2*j*n*n+i] != real(v) || planes[(2*j+1)*n*n+i] != imag(v) {
						t.Fatalf("map %v pixel %d component %d: planes hold (%v, %v), want %v", key, i, j, planes[2*j*n*n+i], planes[(2*j+1)*n*n+i], v)
					}
				}
			}
			if got := Planes(make([]float64, 8*n*n), want); !slices.Equal(got, planes) {
				t.Fatalf("map %v: Planes of the map differs from the cache's planes", key)
			}
		}
	}
}

func TestHash2Range(t *testing.T) {
	for st := 0; st < 200; st++ {
		for slot := 0; slot < 8; slot++ {
			a, b := hash2(st, slot)
			if a < -1 || a > 1 || b < -1 || b > 1 {
				t.Fatalf("hash2(%d,%d) out of range: %g, %g", st, slot, a, b)
			}
		}
	}
}
