package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// referenceFingerprint is the per-cell transcription the chunked
// Fingerprint must equal field for field: sixteen bytes per hash Write,
// Hypot of every cell (zeros included), in canonical cell order.
func referenceFingerprint(g *Grid) Fingerprint {
	h := sha256.New()
	var buf [16]byte
	fp := Fingerprint{GridSize: g.N}
	for c := 0; c < NrCorrelations; c++ {
		for _, v := range g.Data[c] {
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
			h.Write(buf[:])
			a := math.Hypot(real(v), imag(v))
			fp.SumAbs += a
			if a > fp.PeakAbs {
				fp.PeakAbs = a
			}
			if v != 0 {
				fp.Nonzero++
			}
		}
	}
	h.Sum(fp.SHA256[:0])
	return fp
}

// awkward are the float64 bit patterns a lossy or value-based codec
// would change: signed zeros, denormals, infinities, and NaNs with
// payloads (quiet and signalling).
var awkward = []float64{
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.MaxFloat64,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead0000beef),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// sparseGrid fills about one cell in three, the way a partial grid
// looks, with a -0 planted among the zeros of every plane.
func sparseGrid(n int) *Grid {
	g := NewGrid(n)
	state := uint64(n)*2654435761 + 1
	for c := range g.Data {
		for i := range g.Data[c] {
			state = state*6364136223846793005 + 1442695040888963407
			if state>>62 == 0 {
				g.Data[c][i] = complex(float64(int64(state>>20))*1e-9, -float64(i)*0.25-float64(c))
			}
		}
		g.Data[c][(c*7)%len(g.Data[c])] = complex(math.Copysign(0, -1), 0)
	}
	return g
}

// TestFingerprintMatchesPerCellReference pins the chunked one-pass
// fingerprint to the per-cell loop it replaced, on plane sizes below,
// at and across the chunk boundary (65*65 = 4225 cells > 4096).
func TestFingerprintMatchesPerCellReference(t *testing.T) {
	sizes := []int{1, 3, 64, 65}
	if !testing.Short() {
		sizes = append(sizes, 1024)
	}
	for _, n := range sizes {
		for _, g := range []*Grid{NewGrid(n), sparseGrid(n)} {
			if got, want := g.Fingerprint(), referenceFingerprint(g); got != want {
				t.Errorf("n=%d: chunked fingerprint %+v, per-cell reference %+v", n, got, want)
			}
		}
	}
}

// TestFingerprintNegativeZero: a -0 cell is not a nonzero cell, but
// its sign bit is part of the grid's bytes and must move the hash.
func TestFingerprintNegativeZero(t *testing.T) {
	zero, neg := NewGrid(3), NewGrid(3)
	neg.Data[2][4] = complex(0, math.Copysign(0, -1))
	z, n := zero.Fingerprint(), neg.Fingerprint()
	if n.Nonzero != 0 || n.SumAbs != 0 || n.PeakAbs != 0 {
		t.Errorf("-0 cell counted: %+v", n)
	}
	if z.SHA256 == n.SHA256 {
		t.Error("-0 cell did not reach the hash")
	}
	if n != referenceFingerprint(neg) {
		t.Error("-0 grid differs from the per-cell reference")
	}
}

// TestFingerprintSpecials: non-finite cells go through the same Hypot
// and comparisons as in the per-cell loop (NaN sums, Inf peaks).
func TestFingerprintSpecials(t *testing.T) {
	for i, re := range awkward {
		g := sparseGrid(5)
		g.Data[1][3] = complex(re, awkward[(i+3)%len(awkward)])
		got, want := g.Fingerprint(), referenceFingerprint(g)
		// NaN != NaN: compare the float fields by bit pattern.
		if got.SHA256 != want.SHA256 || got.Nonzero != want.Nonzero ||
			math.Float64bits(got.SumAbs) != math.Float64bits(want.SumAbs) ||
			math.Float64bits(got.PeakAbs) != math.Float64bits(want.PeakAbs) {
			t.Errorf("special %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestCellCodecRoundTripBitExact drives every awkward bit pattern, in
// both parts, through the slice and the streaming forms, over lengths
// around the chunk size.
func TestCellCodecRoundTripBitExact(t *testing.T) {
	for _, n := range []int{0, 1, len(awkward) * len(awkward), streamCells - 1, streamCells, streamCells + 1, 2*streamCells + 5} {
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(awkward[i%len(awkward)], awkward[(i/len(awkward))%len(awkward)])
		}
		enc := make([]byte, CellBytes*n)
		EncodeCells(enc, src)
		var buf bytes.Buffer
		if err := WriteCells(&buf, src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), enc) {
			t.Fatalf("n=%d: WriteCells and EncodeCells disagree", n)
		}
		viaSlice, viaStream := make([]complex128, n), make([]complex128, n)
		DecodeCells(viaSlice, enc)
		if err := ReadCells(&buf, viaStream); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !sameBits(viaSlice[i], src[i]) || !sameBits(viaStream[i], src[i]) {
				t.Fatalf("n=%d cell %d: %v / %v, want the bits of %v", n, i, viaSlice[i], viaStream[i], src[i])
			}
		}
	}
}

// TestReadCellsShortInput: a stream cut inside a chunk and one cut
// between chunks both fail with an EOF error instead of leaving a
// silently half-filled plane.
func TestReadCellsShortInput(t *testing.T) {
	src := make([]complex128, streamCells+10)
	var full bytes.Buffer
	if err := WriteCells(&full, src); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 8, streamCells * CellBytes, full.Len() - 1} {
		err := ReadCells(bytes.NewReader(full.Bytes()[:cut]), make([]complex128, len(src)))
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: error %v does not wrap EOF", cut, err)
		}
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestWriteCellsReportsWriterError(t *testing.T) {
	err := WriteCells(&failingWriter{after: streamCells * CellBytes}, make([]complex128, 2*streamCells))
	if err == nil {
		t.Fatal("writer error swallowed")
	}
}

// TestFingerprintSteadyStateAllocs: after the first call has filled
// the pool, hashing allocates nothing.
func TestFingerprintSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	g := sparseGrid(65)
	g.Fingerprint()
	if a := testing.AllocsPerRun(10, func() { g.Fingerprint() }); a != 0 {
		t.Errorf("Fingerprint allocates %.0f times per call", a)
	}
}
