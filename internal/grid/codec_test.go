package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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

// TestFingerprintSpecials: every pair of awkward parts, and parts of
// every magnitude, get math.Hypot's modulus bit for bit and go through
// the same comparisons as in the per-cell loop (NaN sums, Inf peaks).
func TestFingerprintSpecials(t *testing.T) {
	for i, re := range awkward {
		for j, im := range awkward {
			g := sparseGrid(5)
			g.Data[1][3] = complex(re, im)
			if got, want := g.Fingerprint(), referenceFingerprint(g); !sameFingerprint(got, want) {
				t.Errorf("special (%d, %d): %+v, want %+v", i, j, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	part := func() float64 {
		return math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1075)
	}
	for trial := 0; trial < 5000; trial++ {
		g := NewGrid(1) // one cell: SumAbs is its modulus alone
		g.Data[trial%NrCorrelations][0] = complex(part(), part())
		if got, want := g.Fingerprint(), referenceFingerprint(g); !sameFingerprint(got, want) {
			t.Fatalf("cell %v: %+v, want %+v", g.Data[trial%NrCorrelations][0], got, want)
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

// TestZeroCopyMatchesPortableEncoder: on this host the codec moves and
// hashes cell memory directly (when little-endian); the per-cell
// encoder, the path of every other host, must give the same bytes, the
// same decoded bits and the same grid and band fingerprints for every
// awkward bit pattern — ±0, NaN payloads, ±Inf, subnormals.
func TestZeroCopyMatchesPortableEncoder(t *testing.T) {
	src := make([]complex128, len(awkward)*len(awkward)+streamCells+3)
	for i := range src {
		src[i] = complex(awkward[i%len(awkward)], awkward[(i/len(awkward))%len(awkward)])
	}
	g := sparseGrid(67)
	for c := range g.Data {
		copy(g.Data[c][c:], src[:len(awkward)*len(awkward)])
	}
	type out struct {
		enc, written []byte
		dec          []complex128
		grid, band   Fingerprint
	}
	run := func(le bool) (o out) {
		defer func(v bool) { hostLE = v }(hostLE)
		hostLE = le
		o.enc = make([]byte, CellBytes*len(src))
		EncodeCells(o.enc, src)
		var buf bytes.Buffer
		if err := WriteCells(&buf, src); err != nil {
			t.Fatal(err)
		}
		o.written = buf.Bytes()
		o.dec = make([]complex128, len(src))
		DecodeCells(o.dec, o.enc)
		viaStream := make([]complex128, len(src))
		if err := ReadCells(bytes.NewReader(o.enc), viaStream); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !sameBits(o.dec[i], src[i]) || !sameBits(viaStream[i], src[i]) {
				t.Fatalf("hostLE=%v cell %d: %v / %v, want the bits of %v", le, i, o.dec[i], viaStream[i], src[i])
			}
		}
		o.grid, o.band = g.Fingerprint(), g.Rows(3, 60).Fingerprint()
		return o
	}
	portable := run(false)
	if !bytes.Equal(portable.enc, portable.written) {
		t.Fatal("portable EncodeCells and WriteCells disagree")
	}
	if want := referenceFingerprint(g); !sameFingerprint(portable.grid, want) {
		t.Fatalf("portable fingerprint %+v, per-cell reference %+v", portable.grid, want)
	}
	if !hostLE {
		t.Skip("big-endian host: the portable path is the only path")
	}
	direct := run(true)
	if !bytes.Equal(direct.enc, portable.enc) || !bytes.Equal(direct.written, portable.enc) {
		t.Error("the direct path encodes other bytes than the per-cell encoder")
	}
	if !sameFingerprint(direct.grid, portable.grid) || !sameFingerprint(direct.band, portable.band) {
		t.Errorf("direct fingerprints %+v / %+v, portable %+v / %+v", direct.grid, direct.band, portable.grid, portable.band)
	}
}

// sameFingerprint compares fingerprints with their floats by bit
// pattern (a NaN sum is not == itself).
func sameFingerprint(a, b Fingerprint) bool {
	return a.SHA256 == b.SHA256 && a.GridSize == b.GridSize && a.Nonzero == b.Nonzero &&
		math.Float64bits(a.SumAbs) == math.Float64bits(b.SumAbs) &&
		math.Float64bits(a.PeakAbs) == math.Float64bits(b.PeakAbs)
}

// TestBandFingerprint: a band hashes its grid size, Lo and Hi as
// little-endian uint32 and then its cells in the canonical order, its
// diagnostics cover its cells only, and the empty span hashes the
// header alone.
func TestBandFingerprint(t *testing.T) {
	g := sparseGrid(9)
	for _, span := range [][2]int{{0, 9}, {2, 7}, {4, 4}} {
		b := g.Rows(span[0], span[1])
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, [3]uint32{9, uint32(span[0]), uint32(span[1])})
		want := Fingerprint{GridSize: 9}
		for c := range b.Data {
			binary.Write(h, binary.LittleEndian, b.Data[c])
			for _, v := range b.Data[c] {
				if v != 0 {
					want.Nonzero++
					want.SumAbs += math.Hypot(real(v), imag(v))
					want.PeakAbs = max(want.PeakAbs, math.Hypot(real(v), imag(v)))
				}
			}
		}
		h.Sum(want.SHA256[:0])
		if got := b.Fingerprint(); got != want {
			t.Errorf("band %v: %+v, want %+v", span, got, want)
		}
	}
	if g.Rows(0, 9).Fingerprint().SHA256 == g.Fingerprint().SHA256 {
		t.Error("a full-height band hashes as the grid: the span is not in the hash")
	}
}

// TestHasherMatchesBandFingerprint: a band's cells written plane by
// plane in runs of one row, three rows or the whole span fingerprint
// as Band.Fingerprint does, for an empty span and for spans holding -0
// components as well.
func TestHasherMatchesBandFingerprint(t *testing.T) {
	g := sparseGrid(9)
	g.Set(1, 3, 4, complex(math.Copysign(0, -1), 0))
	g.Set(2, 5, 0, complex(1, math.Copysign(0, -1)))
	for _, span := range [][2]int{{0, 9}, {2, 7}, {3, 6}, {4, 4}} {
		b := g.Rows(span[0], span[1])
		want := b.Fingerprint()
		for _, rows := range []int{1, 3, max(1, span[1]-span[0])} {
			h := NewHasher(9, span[0], span[1])
			for c := range b.Data {
				for y := span[0]; y < span[1]; y += rows {
					h.Write(b.Data[c][(y-span[0])*9 : (min(y+rows, span[1])-span[0])*9])
				}
			}
			if got := h.Sum(); !sameFingerprint(got, want) {
				t.Errorf("band %v in %d-row runs: %+v, want %+v", span, rows, got, want)
			}
		}
	}
}
