package uvwsim

import (
	"math"
	"sync"
	"testing"

	"repro/internal/layout"
)

func smallSim() *Simulator {
	cfg := layout.SKA1LowConfig()
	cfg.NrStations = 20
	return New(layout.Generate(cfg), DefaultOptions())
}

func TestBaselineCount(t *testing.T) {
	s := smallSim()
	if got, want := len(s.Baselines()), layout.NrBaselines(20); got != want {
		t.Fatalf("baselines = %d, want %d", got, want)
	}
	// Every pair appears exactly once with P < Q.
	seen := make(map[Baseline]bool)
	for _, b := range s.Baselines() {
		if b.P >= b.Q {
			t.Fatalf("baseline not ordered: %v", b)
		}
		if seen[b] {
			t.Fatalf("duplicate baseline %v", b)
		}
		seen[b] = true
	}
}

func TestBaselineLengthInvariantUnderRotation(t *testing.T) {
	// Earth rotation rotates the baseline vector; |(u,v,w)| must stay
	// equal to the physical baseline length at all times.
	s := smallSim()
	for _, b := range s.Baselines()[:30] {
		l0 := length(s.UVW(b.P, b.Q, 0))
		for _, tt := range []int{1, 100, 5000} {
			l := length(s.UVW(b.P, b.Q, tt))
			if math.Abs(l-l0) > 1e-6*l0 {
				t.Fatalf("baseline %v length changed: %.6f -> %.6f", b, l0, l)
			}
		}
	}
}

func TestConjugateBaseline(t *testing.T) {
	// Swapping the stations negates the uvw coordinate.
	s := smallSim()
	b := s.Baselines()[7]
	fwd := s.UVW(b.P, b.Q, 13)
	rev := s.UVW(b.Q, b.P, 13)
	if math.Abs(fwd.U+rev.U) > 1e-9 || math.Abs(fwd.V+rev.V) > 1e-9 || math.Abs(fwd.W+rev.W) > 1e-9 {
		t.Fatalf("uvw(p,q) != -uvw(q,p): %v vs %v", fwd, rev)
	}
}

func TestUVWTrackIsSmooth(t *testing.T) {
	// With 1 s integrations the uv step per sample is tiny compared to
	// the baseline length (earth rotates ~4e-5 deg/sample).
	s := smallSim()
	b := s.Baselines()[len(s.Baselines())-1]
	prev := s.UVW(b.P, b.Q, 0)
	l := length(prev)
	for tt := 1; tt < 100; tt++ {
		cur := s.UVW(b.P, b.Q, tt)
		step := math.Hypot(cur.U-prev.U, cur.V-prev.V)
		if step > 1e-3*l {
			t.Fatalf("uv step %.3g too large for baseline length %.3g", step, l)
		}
		prev = cur
	}
}

func TestScaleToWavelengths(t *testing.T) {
	c := UVW{U: 299792458.0, V: -2 * 299792458.0, W: 0.5 * 299792458.0}
	s := c.Scale(150e6) // 150 MHz -> lambda ~ 2 m
	if math.Abs(s.U-150e6) > 1e-3 || math.Abs(s.V+300e6) > 1e-3 || math.Abs(s.W-75e6) > 1e-3 {
		t.Fatalf("scaled uvw wrong: %+v", s)
	}
}

func TestBaselineTrackMatchesPointwise(t *testing.T) {
	s := smallSim()
	b := s.Baselines()[3]
	track := s.BaselineTrack(b, 5, 50, nil)
	for i, c := range track {
		want := s.UVW(b.P, b.Q, 5+i)
		if c != want {
			t.Fatalf("track[%d] = %v, want %v", i, c, want)
		}
	}
}

// perCallUVW is the per-call formula BaselineTrack and AllTracks must
// reproduce bit for bit: both sines and cosines taken afresh for every
// sample, the declination's included.
func perCallUVW(s *Simulator, decDeg float64, p, q, t int) UVW {
	lx := s.xyz[q][0] - s.xyz[p][0]
	ly := s.xyz[q][1] - s.xyz[p][1]
	lz := s.xyz[q][2] - s.xyz[p][2]
	sinH, cosH := math.Sincos(s.HourAngle(t))
	sinD, cosD := math.Sincos(decDeg * math.Pi / 180)
	return UVW{
		U: sinH*lx + cosH*ly,
		V: -sinD*cosH*lx + sinD*sinH*ly + cosD*lz,
		W: cosD*cosH*lx - cosD*sinH*ly + sinD*lz,
	}
}

// TestTracksMatchPerCallFormula: tracks read the shared hour-angle
// table, and every sample equals the per-call formula's bits, whether
// a window reuses the table, lies inside it or replaces it, and under
// concurrent callers with different windows.
func TestTracksMatchPerCallFormula(t *testing.T) {
	cfg := layout.SKA1LowConfig()
	cfg.NrStations = 12
	stations := layout.Generate(cfg)
	same := func(a, b UVW) bool {
		return math.Float64bits(a.U) == math.Float64bits(b.U) &&
			math.Float64bits(a.V) == math.Float64bits(b.V) &&
			math.Float64bits(a.W) == math.Float64bits(b.W)
	}
	for _, opts := range []Options{
		DefaultOptions(),
		{LatitudeDeg: 52.9, DeclinationDeg: 48.2, HourAngleStartDeg: 30, IntegrationTime: 10},
	} {
		s := New(stations, opts)
		check := func(what string, b Baseline, t0 int, track []UVW) {
			t.Helper()
			for i, got := range track {
				if want := perCallUVW(s, opts.DeclinationDeg, b.P, b.Q, t0+i); !same(got, want) {
					t.Fatalf("dec %g %s baseline %v sample %d: %v, per-call formula %v",
						opts.DeclinationDeg, what, b, t0+i, got, want)
				}
			}
		}
		for _, nt := range []int{1, 7, 64} {
			for b, tr := range s.AllTracks(nt) {
				check("AllTracks", s.Baselines()[b], 0, tr)
			}
		}
		for _, w := range [][2]int{{5, 50}, {0, 64}, {63, 1}, {100, 30}, {110, 5}, {-3, 9}, {0, 1}} {
			for _, b := range s.Baselines()[:20] {
				check("BaselineTrack", b, w[0], s.BaselineTrack(b, w[0], w[1], nil))
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []UVW
				for i, b := range s.Baselines() {
					t0 := (g + i) % 3 * 40
					buf = s.BaselineTrack(b, t0, 80, buf)
					for j, got := range buf {
						if want := perCallUVW(s, opts.DeclinationDeg, b.P, b.Q, t0+j); !same(got, want) {
							t.Errorf("concurrent baseline %v sample %d: %v, per-call formula %v", b, t0+j, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if c := s.UVW(2, 9, 17); !same(c, perCallUVW(s, opts.DeclinationDeg, 2, 9, 17)) {
			t.Fatalf("UVW %v differs from the per-call formula", c)
		}
	}
}

func TestBaselineTrackReusesBuffer(t *testing.T) {
	s := smallSim()
	b := s.Baselines()[0]
	buf := make([]UVW, 100)
	track := s.BaselineTrack(b, 0, 50, buf)
	if &track[0] != &buf[0] {
		t.Fatal("expected the provided buffer to be reused")
	}
}

func TestAllTracksShape(t *testing.T) {
	s := smallSim()
	tracks := s.AllTracks(16)
	if len(tracks) != len(s.Baselines()) {
		t.Fatalf("tracks for %d baselines, want %d", len(tracks), len(s.Baselines()))
	}
	for _, tr := range tracks {
		if len(tr) != 16 {
			t.Fatalf("track length %d, want 16", len(tr))
		}
	}
}

func TestMaxUVBoundsTracks(t *testing.T) {
	s := smallSim()
	m := s.MaxUV(64)
	if m <= 0 {
		t.Fatal("MaxUV must be positive")
	}
	// No sampled coordinate may exceed it (same sampling).
	tracks := s.AllTracks(64)
	for _, tr := range tracks {
		for tt := 0; tt < 64; tt += 4 {
			if math.Abs(tr[tt].U) > 1.01*m*1.0001+1 && math.Abs(tr[tt].V) > m {
				t.Fatalf("coordinate exceeds MaxUV: %v > %v", tr[tt], m)
			}
		}
	}
}

func TestWSignDependsOnGeometry(t *testing.T) {
	// At transit of a source at the array latitude, w of an east-west
	// baseline is ~0: build a two-station east-west pair and check.
	st := []layout.Station{{E: 0, N: 0}, {E: 1000, N: 0}}
	opts := DefaultOptions()
	opts.DeclinationDeg = opts.LatitudeDeg // source through zenith
	opts.HourAngleStartDeg = 0             // transit
	s := New(st, opts)
	c := s.UVW(0, 1, 0)
	if math.Abs(c.W) > 1e-6*1000 {
		t.Fatalf("w = %g at transit for EW baseline, want ~0", c.W)
	}
	if math.Abs(c.U-1000) > 1e-6*1000 {
		t.Fatalf("u = %g, want 1000 (pure east-west)", c.U)
	}
}

func TestValidation(t *testing.T) {
	st := layout.Generate(layout.LOFARLikeConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for single station")
			}
		}()
		New(st[:1], DefaultOptions())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for non-positive integration time")
			}
		}()
		opts := DefaultOptions()
		opts.IntegrationTime = 0
		New(st, opts)
	}()
}

func length(c UVW) float64 {
	return math.Sqrt(c.U*c.U + c.V*c.V + c.W*c.W)
}
