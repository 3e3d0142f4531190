// Package layout generates synthetic radio-telescope station layouts.
// The paper's benchmark uses proposed antenna coordinates for the
// SKA1-low telescope (150 stations, 11,175 baselines); those exact
// coordinates are not distributed with the paper, so this package
// builds the standard SKA1-low-like configuration from its published
// design: a dense randomly-filled core plus three logarithmic spiral
// arms. A LOFAR-like compact configuration is provided as a second
// preset. Generation is deterministic given the seed.
package layout

import (
	"fmt"
	"math"
	"math/rand"
)

// Station is a station position in local east-north-up coordinates,
// in meters, relative to the array center.
type Station struct {
	Name    string
	E, N, U float64
}

// Config describes a generated array layout.
type Config struct {
	// NrStations is the total number of stations to place.
	NrStations int
	// CoreFraction is the fraction of stations inside the dense core.
	CoreFraction float64
	// CoreRadius is the core radius in meters.
	CoreRadius float64
	// ArmCount is the number of logarithmic spiral arms.
	ArmCount int
	// MaxRadius is the outer radius of the spiral arms in meters.
	MaxRadius float64
	// Seed makes the random core placement reproducible.
	Seed int64
}

// SKA1LowConfig returns the configuration used for the paper's
// benchmark dataset: 150 stations, dense ~500 m core holding half the
// stations, three spiral arms out to 35 km.
func SKA1LowConfig() Config {
	return Config{
		NrStations:   150,
		CoreFraction: 0.5,
		CoreRadius:   500,
		ArmCount:     3,
		MaxRadius:    35000,
		Seed:         0x5ca1ab1e,
	}
}

// LOFARLikeConfig returns a compact LOFAR-like configuration with ~50
// stations (Section I of the paper), useful for smaller tests.
func LOFARLikeConfig() Config {
	return Config{
		NrStations:   50,
		CoreFraction: 0.6,
		CoreRadius:   1500,
		ArmCount:     5,
		MaxRadius:    40000,
		Seed:         0x10f4a,
	}
}

// Generate places the stations of cfg. The core stations are drawn
// uniformly from a disc; the remaining stations are spread along
// logarithmic spiral arms with small deterministic jitter.
func Generate(cfg Config) []Station {
	if cfg.NrStations < 2 {
		panic(fmt.Sprintf("layout: need at least 2 stations, got %d", cfg.NrStations))
	}
	if cfg.ArmCount < 1 {
		panic("layout: need at least one arm")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stations := make([]Station, 0, cfg.NrStations)

	nCore := int(float64(cfg.NrStations) * cfg.CoreFraction)
	for i := 0; i < nCore; i++ {
		// Uniform over the disc: radius ~ sqrt(u).
		r := cfg.CoreRadius * math.Sqrt(rng.Float64())
		phi := rng.Float64() * 2 * math.Pi
		stations = append(stations, Station{
			Name: fmt.Sprintf("C%03d", i),
			E:    r * math.Cos(phi),
			N:    r * math.Sin(phi),
		})
	}

	nArm := cfg.NrStations - nCore
	perArm := nArm / cfg.ArmCount
	extra := nArm - perArm*cfg.ArmCount
	idx := 0
	for a := 0; a < cfg.ArmCount; a++ {
		count := perArm
		if a < extra {
			count++
		}
		armPhase := 2 * math.Pi * float64(a) / float64(cfg.ArmCount)
		for i := 0; i < count; i++ {
			// Logarithmic radius progression from the core edge to
			// MaxRadius; winding of ~3/4 turn over the arm length.
			f := (float64(i) + 0.5) / float64(count)
			r := cfg.CoreRadius * math.Pow(cfg.MaxRadius/cfg.CoreRadius, f)
			phi := armPhase + 1.5*math.Pi*f
			// Jitter by up to 4% of the radius to avoid gridded
			// artifacts in the uv coverage.
			jr := 1 + 0.04*(rng.Float64()*2-1)
			jphi := 0.02 * (rng.Float64()*2 - 1)
			stations = append(stations, Station{
				Name: fmt.Sprintf("A%d%03d", a, i),
				E:    r * jr * math.Cos(phi+jphi),
				N:    r * jr * math.Sin(phi+jphi),
			})
			idx++
		}
	}
	return stations
}

// NrBaselines returns the number of distinct station pairs for n
// stations: n*(n-1)/2. For the paper's 150 stations this is 11,175.
func NrBaselines(nrStations int) int {
	return nrStations * (nrStations - 1) / 2
}
