// Package uvwsim synthesizes uvw baseline coordinates under earth
// rotation. It stands in for the SKA Science Data Processor "uvwsim"
// baseline coordinate generator referenced by the paper ([27]): given
// station positions, an observing latitude, a phase-center declination
// and an hour-angle range, it produces the uvw track of every baseline
// over time. Earth rotation is what turns each baseline into the
// elliptical uv tracks shown in Fig. 3 and Fig. 8 of the paper.
package uvwsim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/layout"
)

// SpeedOfLight is c in m/s, used to convert uvw in meters to
// wavelengths for a given frequency.
const SpeedOfLight = 299792458.0

// UVW is one baseline coordinate sample in meters.
type UVW struct {
	U, V, W float64
}

// Scale returns the coordinate expressed in wavelengths for frequency
// freq (Hz).
func (c UVW) Scale(freq float64) UVW {
	s := freq / SpeedOfLight
	return UVW{c.U * s, c.V * s, c.W * s}
}

// Baseline identifies an ordered station pair (P < Q).
type Baseline struct {
	P, Q int
}

// Simulator converts station layouts into per-baseline uvw tracks.
type Simulator struct {
	xyz       [][3]float64 // equatorial station coordinates, meters
	baselines []Baseline
	latitude  float64 // radians
	sinD      float64 // sine of the phase-center declination
	cosD      float64 // cosine of the phase-center declination
	ha0       float64 // hour angle of the first sample, radians
	dha       float64 // hour angle step per integration, radians
	// hours holds sin/cos of the hour angles of the last sample window
	// a track asked for, which every baseline's track reads.
	hours atomic.Pointer[hourTable]
}

// hourTable holds {sin, cos} of the hour angle of samples t0, t0+1, ...
type hourTable struct {
	t0 int
	sc [][2]float64
}

// Options configures a Simulator.
type Options struct {
	// LatitudeDeg is the array latitude in degrees. The SKA1-low site
	// (Murchison, Western Australia) is at about -26.7 deg.
	LatitudeDeg float64
	// DeclinationDeg is the phase-center declination in degrees.
	DeclinationDeg float64
	// HourAngleStartDeg is the hour angle of the first time sample in
	// degrees (0 = transit).
	HourAngleStartDeg float64
	// IntegrationTime is the correlator dump time in seconds
	// (1 s in the paper's dataset).
	IntegrationTime float64
}

// DefaultOptions returns the observation geometry used by the
// benchmark dataset: SKA1-low site latitude, a southern source near
// zenith observed around transit with 1 s integrations.
func DefaultOptions() Options {
	return Options{
		LatitudeDeg:       -26.7,
		DeclinationDeg:    -30.0,
		HourAngleStartDeg: -17.0, // ~8192 s of observation centered on transit
		IntegrationTime:   1.0,
	}
}

// siderealRate is the earth rotation rate in radians per second of
// solar time (2*pi per sidereal day).
const siderealRate = 2 * math.Pi / 86164.0905

// New builds a Simulator for the given stations and observation
// geometry.
func New(stations []layout.Station, opts Options) *Simulator {
	if len(stations) < 2 {
		panic(fmt.Sprintf("uvwsim: need at least 2 stations, got %d", len(stations)))
	}
	if opts.IntegrationTime <= 0 {
		panic("uvwsim: integration time must be positive")
	}
	lat := opts.LatitudeDeg * math.Pi / 180
	s := &Simulator{
		latitude: lat,
		ha0:      opts.HourAngleStartDeg * math.Pi / 180,
		dha:      siderealRate * opts.IntegrationTime,
	}
	s.sinD, s.cosD = math.Sincos(opts.DeclinationDeg * math.Pi / 180)
	sinLat, cosLat := math.Sincos(lat)
	s.xyz = make([][3]float64, len(stations))
	for i, st := range stations {
		// Local ENU -> equatorial XYZ (X toward HA=0 on the equator,
		// Y toward HA=-6h, Z toward the north celestial pole).
		s.xyz[i] = [3]float64{
			-sinLat*st.N + cosLat*st.U,
			st.E,
			cosLat*st.N + sinLat*st.U,
		}
	}
	s.baselines = make([]Baseline, 0, layout.NrBaselines(len(stations)))
	for p := 0; p < len(stations); p++ {
		for q := p + 1; q < len(stations); q++ {
			s.baselines = append(s.baselines, Baseline{p, q})
		}
	}
	return s
}

// Baselines returns the ordered list of station pairs.
func (s *Simulator) Baselines() []Baseline { return s.baselines }

// NrStations returns the number of stations.
func (s *Simulator) NrStations() int { return len(s.xyz) }

// HourAngle returns the hour angle (radians) of time sample t.
func (s *Simulator) HourAngle(t int) float64 {
	return s.ha0 + float64(t)*s.dha
}

// UVW returns the uvw coordinate in meters of baseline (p, q) at time
// sample t, following the standard synthesis-imaging rotation (e.g.
// Thompson, Moran & Swenson):
//
//	u =  sinH*Lx + cosH*Ly
//	v = -sinD*cosH*Lx + sinD*sinH*Ly + cosD*Lz
//	w =  cosD*cosH*Lx - cosD*sinH*Ly + sinD*Lz
func (s *Simulator) UVW(p, q, t int) UVW {
	sinH, cosH := math.Sincos(s.HourAngle(t))
	return s.rotate(p, q, sinH, cosH)
}

// rotate is UVW at the hour angle whose sine and cosine are given.
func (s *Simulator) rotate(p, q int, sinH, cosH float64) UVW {
	lx := s.xyz[q][0] - s.xyz[p][0]
	ly := s.xyz[q][1] - s.xyz[p][1]
	lz := s.xyz[q][2] - s.xyz[p][2]
	sinD, cosD := s.sinD, s.cosD
	return UVW{
		U: sinH*lx + cosH*ly,
		V: -sinD*cosH*lx + sinD*sinH*ly + cosD*lz,
		W: cosD*cosH*lx - cosD*sinH*ly + sinD*lz,
	}
}

// hourSincos returns sin/cos of the hour angles of samples
// [t0, t0+nt). The table is shared: a window inside the last one is a
// slice of it, any other window replaces it.
func (s *Simulator) hourSincos(t0, nt int) [][2]float64 {
	if h := s.hours.Load(); h != nil && t0 >= h.t0 && t0+nt <= h.t0+len(h.sc) {
		return h.sc[t0-h.t0 : t0-h.t0+nt]
	}
	h := &hourTable{t0: t0, sc: make([][2]float64, nt)}
	for i := range h.sc {
		h.sc[i][0], h.sc[i][1] = math.Sincos(s.HourAngle(t0 + i))
	}
	s.hours.Store(h)
	return h.sc
}

// BaselineTrack fills out with the uvw track of baseline b over nt
// consecutive time samples starting at sample t0 and returns it. If
// out is nil or too small a new slice is allocated. Each sample equals
// UVW's, bit for bit; concurrent calls are safe.
func (s *Simulator) BaselineTrack(b Baseline, t0, nt int, out []UVW) []UVW {
	if cap(out) < nt {
		out = make([]UVW, nt)
	}
	out = out[:nt]
	for t, h := range s.hourSincos(t0, nt) {
		out[t] = s.rotate(b.P, b.Q, h[0], h[1])
	}
	return out
}

// AllTracks computes the uvw tracks of every baseline for nt samples:
// result[b][t]. For the full paper dataset (11,175 baselines x 8,192
// steps) this allocates ~2.2 GB; benchmarks use scaled-down counts and
// the perf model works from closed-form counts instead.
func (s *Simulator) AllTracks(nt int) [][]UVW {
	out := make([][]UVW, len(s.baselines))
	for i, b := range s.baselines {
		out[i] = s.BaselineTrack(b, 0, nt, nil)
	}
	return out
}

// MaxUV returns the largest |u| or |v| in meters over all baselines at
// the given number of time samples; used to choose the image size so
// that all visibilities fall onto the grid.
func (s *Simulator) MaxUV(nt int) float64 {
	m := 0.0
	for _, b := range s.baselines {
		// Sampling the ends and middle of the track is enough for a
		// bound because the track is an ellipse arc, but be safe and
		// scan coarsely.
		step := nt / 16
		if step == 0 {
			step = 1
		}
		for t := 0; t < nt; t += step {
			c := s.UVW(b.P, b.Q, t)
			if a := math.Abs(c.U); a > m {
				m = a
			}
			if a := math.Abs(c.V); a > m {
				m = a
			}
		}
	}
	return m
}

// MaxW returns the largest |w| in meters over all baselines, sampled
// coarsely like MaxUV.
func (s *Simulator) MaxW(nt int) float64 {
	m := 0.0
	for _, b := range s.baselines {
		step := nt / 16
		if step == 0 {
			step = 1
		}
		for t := 0; t < nt; t += step {
			if a := math.Abs(s.UVW(b.P, b.Q, t).W); a > m {
				m = a
			}
		}
	}
	return m
}
