package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
)

// -update regenerates testdata/golden_grid.json from the current code:
//
//	go test -run TestGoldenGridConformance -update .
//
// Commit the regenerated file only when a numerical change is
// intended; an unexplained hash change means the gridding math moved.
var updateGolden = flag.Bool("update", false, "rewrite the golden grid conformance file")

const goldenGridFile = "testdata/golden_grid.json"

// goldenGrid is the committed fingerprint of one deterministic
// grid->FFT->add pass: the exported GridFingerprint (the same hash the
// server's session results carry, so wire-streamed sessions are
// comparable against this file's currency). The hash pins the exact
// bits; the diagnostics exist so a mismatch tells a human roughly what
// moved (energy, support, peak) without bisecting first.
type goldenGrid = GridFingerprint

// goldenObservation builds the fixed observation the golden file is
// keyed to. Everything that could perturb the output bits is pinned:
// the station layout seed is constant (layout.SKA1LowConfig) and
// Workers is 1 so floating-point accumulation order is the serial
// order. The kernels are the production tiles: every SIMD tier grids
// the same float64 bits, so one hash holds on every host (CI checks it
// under IDG_SIMD=scalar and avx2 too).
func goldenObservation(t testing.TB) *Observation {
	t.Helper()
	cfg := ObservationConfig{
		NrStations:     10,
		NrTimesteps:    48,
		NrChannels:     4,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       256,
		SubgridSize:    16,
		KernelSupport:  4,
		GridMargin:     16,
		ATermInterval:  16,
		Workers:        1,
	}
	o, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := o.ImageSize / float64(cfg.GridSize)
	model := SkyModel{
		{L: 20 * pix, M: -12 * pix, I: 1},
		{L: -36 * pix, M: 26 * pix, I: 0.5},
		{L: 8 * pix, M: 44 * pix, I: 0.25},
	}
	if err := o.FillFromModel(model); err != nil {
		t.Fatal(err)
	}
	return o
}

// fingerprintGrid hashes the grid's stream and collects the
// human-readable diagnostics; it delegates to the exported
// FingerprintGrid so the golden file, the serving path and client-side
// verification all hash identically.
func fingerprintGrid(g *grid.Grid) goldenGrid {
	return FingerprintGrid(g)
}

// goldenDenseSHA256 is the golden grid's hash under the dense
// definition the fingerprint had before its stream elided zero cells:
// the SHA-256 of every plane's cells, float64 real then imaginary
// bits, little-endian. It pins the grid's bits apart from the stream.
const goldenDenseSHA256 = "a36e8171aa48e70838e0982ede49eedce3fa4293ffd11b2487b056d6ea132880"

// denseSHA256 is the dense oracle: the hex SHA-256 of g's dense cells.
func denseSHA256(g *grid.Grid) string {
	h := sha256.New()
	for c := range g.Data {
		binary.Write(h, binary.LittleEndian, g.Data[c])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenGridConformance runs the full grid -> subgrid FFT -> adder
// pipeline on a deterministic observation and compares the resulting
// grid bit-for-bit against the committed golden fingerprint.
func TestGoldenGridConformance(t *testing.T) {
	o := goldenObservation(t)
	g, _, err := o.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprintGrid(g)
	if got.Nonzero == 0 {
		t.Fatal("gridded observation produced an all-zero grid")
	}
	if d := denseSHA256(g); d != goldenDenseSHA256 {
		t.Errorf("dense grid hash %s, want %s: a grid bit moved", d, goldenDenseSHA256)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenGridFile), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGridFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %+v", goldenGridFile, got)
		return
	}

	data, err := os.ReadFile(goldenGridFile)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenGridConformance -update .` to create it)", err)
	}
	var want goldenGrid
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != want.SHA256 {
		t.Errorf("grid hash %s, want %s\n got: %+v\nwant: %+v\n(an intended numerical change needs -update)",
			got.SHA256, want.SHA256, got, want)
	}
}

// TestGoldenGridDeterminism guards the premise of the golden file: two
// independent builds of the same observation must produce identical
// bits, or the conformance hash would flake.
func TestGoldenGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("second full gridding pass in -short mode")
	}
	hash := func() string {
		o := goldenObservation(t)
		g, _, err := o.GridAll(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintGrid(g).SHA256
	}
	if a, b := hash(), hash(); a != b {
		t.Fatalf("two identical runs hashed differently: %s vs %s", a, b)
	}
}

// FuzzGridStream feeds grid.ReadStream arbitrary bytes as the stream of
// a grid of at most 256 pixels, seeded with the golden grid's stream
// and a few small ones: input that decodes must be the decoded grid's
// own stream byte for byte, and decoding that stream again gives the
// grid bit for bit; any other input is a *grid.StreamError.
func FuzzGridStream(f *testing.F) {
	o := goldenObservation(f)
	g, _, err := o.GridAll(context.Background(), nil)
	if err != nil {
		f.Fatal(err)
	}
	specials := grid.NewGrid(2)
	specials.Data[1][2] = complex(math.Copysign(0, -1), math.Float64frombits(0x7ff8dead0000beef))
	for _, g := range []*grid.Grid{g, grid.NewGrid(1), specials} {
		var stream bytes.Buffer
		if err := WriteGridBinary(&stream, g); err != nil {
			f.Fatal(err)
		}
		f.Add(stream.Bytes(), g.N)
	}
	f.Fuzz(func(t *testing.T, stream []byte, n int) {
		if n > 256 {
			return // a declared grid that large costs its allocation alone
		}
		g, err := grid.ReadStream(bytes.NewReader(stream), n)
		if err != nil {
			if se := (*grid.StreamError)(nil); !errors.As(err, &se) {
				t.Fatalf("error %v (%T) is not a *grid.StreamError", err, err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteGridBinary(&again, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), stream) {
			t.Fatal("a decoded stream re-encodes to other bytes")
		}
		back, err := grid.ReadStream(&again, n)
		if err != nil {
			t.Fatal(err)
		}
		for c := range g.Data {
			for i, v := range g.Data[c] {
				w := back.Data[c][i]
				if math.Float64bits(real(w)) != math.Float64bits(real(v)) || math.Float64bits(imag(w)) != math.Float64bits(imag(v)) {
					t.Fatalf("plane %d cell %d: %v decoded as %v", c, i, v, w)
				}
			}
		}
	})
}
