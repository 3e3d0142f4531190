package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/xmath"
)

func TestNewGridZeroed(t *testing.T) {
	g := NewGrid(16)
	if g.Norm2() != 0 {
		t.Fatal("new grid not zeroed")
	}
	for c := 0; c < NrCorrelations; c++ {
		if len(g.Data[c]) != 256 {
			t.Fatalf("plane %d has %d pixels", c, len(g.Data[c]))
		}
	}
}

func TestGridAccessors(t *testing.T) {
	g := NewGrid(8)
	g.Set(2, 3, 4, 1+2i)
	if g.At(2, 3, 4) != 1+2i {
		t.Fatal("Set/At mismatch")
	}
	g.Add(2, 3, 4, 1i)
	if g.At(2, 3, 4) != 1+3i {
		t.Fatal("Add mismatch")
	}
	// Neighbouring pixels must be untouched.
	if g.At(2, 3, 5) != 0 || g.At(2, 4, 4) != 0 || g.At(1, 3, 4) != 0 {
		t.Fatal("Set leaked into neighbours")
	}
}

func TestGridCloneIndependent(t *testing.T) {
	g := NewGrid(4)
	g.Set(0, 1, 1, 5)
	c := g.Clone()
	c.Set(0, 1, 1, 7)
	if g.At(0, 1, 1) != 5 {
		t.Fatal("clone aliases original")
	}
	if c.At(0, 1, 1) != 7 {
		t.Fatal("clone lost write")
	}
}

func TestAddGrid(t *testing.T) {
	a, b := NewGrid(4), NewGrid(4)
	a.Set(1, 0, 0, 2)
	b.Set(1, 0, 0, 3+1i)
	b.Set(3, 3, 3, 1)
	a.AddGrid(b)
	if a.At(1, 0, 0) != 5+1i || a.At(3, 3, 3) != 1 {
		t.Fatal("AddGrid wrong")
	}
}

func TestGridZero(t *testing.T) {
	g := NewGrid(4)
	g.Set(0, 0, 0, 1)
	g.Zero()
	if g.Norm2() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestMaxAbsDiffAndNorm(t *testing.T) {
	a, b := NewGrid(4), NewGrid(4)
	a.Set(0, 1, 2, 3+4i)
	if math.Abs(a.Norm2()-25) > 1e-12 {
		t.Fatalf("Norm2 = %g", a.Norm2())
	}
	if math.Abs(a.MaxAbsDiff(b)-5) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %g", a.MaxAbsDiff(b))
	}
}

func TestSubgridPixelMatrixRoundtrip(t *testing.T) {
	s := NewSubgrid(8, 0, 0)
	r := rand.New(rand.NewSource(2))
	var m xmath.Matrix2
	for i := range m {
		m[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	s.SetPixel(3, 5, m)
	if got := s.Pixel(3, 5); got != m {
		t.Fatalf("pixel roundtrip: got %v want %v", got, m)
	}
	// Correlation planes see the right elements.
	if s.At(0, 3, 5) != m[0] || s.At(3, 3, 5) != m[3] {
		t.Fatal("plane layout mismatch")
	}
}

func TestSubgridInBounds(t *testing.T) {
	cases := []struct {
		x0, y0 int
		want   bool
	}{
		{0, 0, true}, {8, 8, true}, {9, 0, false}, {0, -1, false}, {8, 9, false},
	}
	for _, c := range cases {
		s := NewSubgrid(24, c.x0, c.y0)
		if got := s.InBounds(32); got != c.want {
			t.Fatalf("InBounds(%d,%d) = %v, want %v", c.x0, c.y0, got, c.want)
		}
	}
}

func TestSubgridClone(t *testing.T) {
	s := NewSubgrid(4, 1, 2)
	s.WOffset = 42
	s.Set(2, 1, 1, 9)
	c := s.Clone()
	if c.X0 != 1 || c.Y0 != 2 || c.WOffset != 42 || c.At(2, 1, 1) != 9 {
		t.Fatal("clone metadata/data mismatch")
	}
	c.Set(2, 1, 1, 0)
	if s.At(2, 1, 1) != 9 {
		t.Fatal("clone aliases original")
	}
}

func TestInvalidSizesPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(0) },
		func() { NewSubgrid(0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAddGridSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(4).AddGrid(NewGrid(8))
}

// TestSubgridFiniteVerdicts plants every kind of non-finite value in
// the first, a middle and the last cell of each plane, in either
// component, on an even- and an odd-sized subgrid (the check runs two
// pixels at a time).
func TestSubgridFiniteVerdicts(t *testing.T) {
	for _, n := range []int{6, 7} {
		s := NewSubgrid(n, 0, 0)
		for c := range s.Data {
			for i := range s.Data[c] {
				s.Data[c][i] = complex(float64(i)-3.5, -1e300*float64(c+1))
			}
		}
		if !s.Finite() {
			t.Fatalf("n=%d: finite subgrid reported as poisoned", n)
		}
		for c := range s.Data {
			for _, i := range []int{0, n*n/2 + 1, n*n - 1} {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					for _, v := range []complex128{complex(bad, 1), complex(1, bad)} {
						old := s.Data[c][i]
						s.Data[c][i] = v
						if s.Finite() {
							t.Fatalf("n=%d plane %d cell %d = %v: reported finite", n, c, i, v)
						}
						s.Data[c][i] = old
					}
				}
			}
		}
		if !s.Finite() {
			t.Fatalf("n=%d: restored subgrid reported as poisoned", n)
		}
	}
}

// TestBandGridAndAdd: a band materialises as a grid holding its rows
// and zeros around them (a full-height band as its own memory), and Add
// accumulates a narrower band over its rows only.
func TestBandGridAndAdd(t *testing.T) {
	b := NewBand(6, 2, 5)
	for c := range b.Data {
		for i := range b.Data[c] {
			b.Data[c][i] = complex(float64(i+1), float64(c))
		}
	}
	g := b.Grid()
	for c := range g.Data {
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				var want complex128
				if y >= 2 && y < 5 {
					want = b.Data[c][(y-2)*6+x]
				}
				if got := g.At(c, y, x); got != want {
					t.Fatalf("plane %d (%d, %d) = %v, want %v", c, y, x, got, want)
				}
			}
		}
	}
	if full := g.Rows(0, 6); &full.Grid().Data[1][0] != &g.Data[1][0] {
		t.Error("a full-height band materialised as a copy")
	}
	narrow := g.Rows(3, 4)
	b.Add(narrow)
	if got, want := b.Data[2][6+4], 2*g.At(2, 3, 4); got != want {
		t.Errorf("added cell %v, want %v", got, want)
	}
	if got, want := b.Data[2][4], g.At(2, 2, 4); got != want {
		t.Errorf("cell outside the added rows moved: %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("adding a band outside the destination's rows did not panic")
		}
	}()
	narrow.Add(b)
}

// TestBandSubgridOpsTouchOverlapOnly: on a band that cuts through a
// subgrid, AddSubgrid and CopySubgrid move exactly the rows the two
// share, and both reject a subgrid outside the grid even when it misses
// the band.
func TestBandSubgridOpsTouchOverlapOnly(t *testing.T) {
	const n = 12
	s := NewSubgrid(6, 3, 2) // grid rows [2, 8)
	for c := range s.Data {
		for i := range s.Data[c] {
			s.Data[c][i] = 1
		}
	}
	g := NewGrid(n)
	g.Rows(4, 6).AddSubgrid(s)
	for c := range g.Data {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var want complex128
				if y >= 4 && y < 6 && x >= 3 && x < 9 {
					want = 1
				}
				if got := g.At(c, y, x); got != want {
					t.Fatalf("add: plane %d (%d, %d) = %v, want %v", c, y, x, got, want)
				}
			}
		}
	}

	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(float64(i), float64(c))
		}
	}
	const sentinel = complex(-7, -7)
	for c := range s.Data {
		for i := range s.Data[c] {
			s.Data[c][i] = sentinel
		}
	}
	g.Rows(4, 6).CopySubgrid(s)
	for c := range s.Data {
		for y := 0; y < s.N; y++ {
			for x := 0; x < s.N; x++ {
				want := sentinel
				if gy := s.Y0 + y; gy >= 4 && gy < 6 {
					want = g.At(c, gy, s.X0+x)
				}
				if got := s.At(c, y, x); got != want {
					t.Fatalf("copy: plane %d subgrid (%d, %d) = %v, want %v", c, y, x, got, want)
				}
			}
		}
	}

	outside := NewSubgrid(6, 0, 10) // rows [10, 16) of a 12-row grid
	for name, op := range map[string]func(*Band, *Subgrid){"add": (*Band).AddSubgrid, "copy": (*Band).CopySubgrid} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a subgrid outside the grid did not panic", name)
				}
			}()
			op(g.Rows(0, 2), outside)
		}()
	}
}

// TestGridBandGrow: a NewGridBand band grows in its own grid to the
// bits a new band gets from adding it (-0 components become +0, zeros
// around it), materialises as that grid with no copy, and a plain band
// grows into a new band and is left as it was.
func TestGridBandGrow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fill := func(b *Band) {
		for c := range b.Data {
			for i := range b.Data[c] {
				switch i % 4 {
				case 0:
					b.Data[c][i] = complex(negZero, negZero)
				case 1:
					b.Data[c][i] = complex(float64(i), negZero)
				default:
					b.Data[c][i] = complex(float64(c), -float64(i))
				}
			}
		}
	}
	plain, backed := NewBand(8, 3, 5), NewGridBand(8, 3, 5)
	fill(plain)
	fill(backed)
	before := plain.Fingerprint()
	want := plain.Grow(1, 7)
	if plain.Fingerprint() != before {
		t.Fatal("growing a plain band changed it")
	}
	got := backed.Grow(1, 7)
	if gf, wf := got.Fingerprint(), want.Fingerprint(); got.Lo != 1 || got.Hi != 7 || gf != wf {
		t.Fatalf("the grid band grew to [%d, %d) %x, the plain band to [1, 7) %x", got.Lo, got.Hi, gf.SHA256[:6], wf.SHA256[:6])
	}
	g := got.Grid()
	if &g.Data[0][8] != &got.Data[0][0] || backed.Grid() != g {
		t.Fatal("the grown band does not share its grid")
	}
	if g.Fingerprint() != want.Grid().Fingerprint() {
		t.Fatal("the grid band materialises to other bits than the grown plain band")
	}
	defer func() {
		if recover() == nil {
			t.Error("shrinking a band did not panic")
		}
	}()
	got.Grow(2, 7)
}
