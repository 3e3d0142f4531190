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
	"strings"
	"testing"
)

// referenceStream is the per-cell transcription of the grid stream the
// encoder must produce: header, then every cell of the planes in
// order, +0 cells counted and the rest written with the count before
// them, then the count of the trailing zeros.
func referenceStream(header []byte, planes [NrCorrelations][]complex128) []byte {
	out := append([]byte(nil), header...)
	var run uint64
	for _, plane := range planes {
		for _, v := range plane {
			re, im := math.Float64bits(real(v)), math.Float64bits(imag(v))
			if re == 0 && im == 0 {
				run++
				continue
			}
			out = binary.AppendUvarint(out, run)
			out = binary.LittleEndian.AppendUint64(out, re)
			out = binary.LittleEndian.AppendUint64(out, im)
			run = 0
		}
	}
	return binary.AppendUvarint(out, run)
}

// referenceFingerprint is the per-cell transcription the chunked
// Fingerprint must equal field for field: the SHA-256 of
// referenceStream, Hypot of every cell (zeros included), in canonical
// cell order.
func referenceFingerprint(g *Grid) Fingerprint {
	fp := Fingerprint{GridSize: g.N, SHA256: sha256.Sum256(referenceStream(nil, g.Data))}
	for c := 0; c < NrCorrelations; c++ {
		for _, v := range g.Data[c] {
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
	return fp
}

// denseSHA256 is the dense oracle: the SHA-256 of the planes' cells,
// each its float64 real then imaginary bits, little-endian — the
// fingerprint before the stream elided zero cells. Grid bits are
// checked against the hashes recorded under this definition.
func denseSHA256(g *Grid) [32]byte {
	h := sha256.New()
	for c := range g.Data {
		binary.Write(h, binary.LittleEndian, g.Data[c])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
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

// bufCells is how many cells fill the encoder's buffer.
const bufCells = len(cellStream{}.buf) / CellBytes

// awkwardBand is a one-row band of n cells holding every pair of
// awkward parts in turn, and so every nonzero bit pattern a lossy or
// value-based codec would change, beside +0 cells.
func awkwardBand(n int) *Band {
	b := NewBand(max(1, (n+NrCorrelations-1)/NrCorrelations), 0, 1)
	for i := 0; i < n; i++ {
		b.Data[i%NrCorrelations][i/NrCorrelations] = complex(awkward[i%len(awkward)], awkward[(i/len(awkward))%len(awkward)])
	}
	return b
}

// TestCellCodecRoundTripBitExact drives every awkward bit pattern, in
// both parts, through a band's stream and back, over lengths around
// the encoder's buffer and in writes from the shortest allowed to the
// whole buffer: the stream is the per-cell reference, every write ends
// between two entries, and the decoded cells and diagnostics are the
// source's.
func TestCellCodecRoundTripBitExact(t *testing.T) {
	for _, n := range []int{0, 1, len(awkward) * len(awkward), bufCells - 1, bufCells, bufCells + 1, 2*bufCells + 5} {
		src := awkwardBand(n)
		var header bytes.Buffer
		binary.Write(&header, binary.LittleEndian, [3]uint32{uint32(src.N), 0, 1})
		want := referenceStream(header.Bytes(), src.Data)
		for _, limit := range []int{EntryBytes, 100, 0} {
			var w entryWriter
			fp, err := src.WriteStream(&w, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.stream, want) {
				t.Fatalf("n=%d limit=%d: stream differs from the per-cell reference", n, limit)
			}
			if limit > 0 && w.longest > limit {
				t.Fatalf("n=%d: a %d-byte write under a %d-byte limit", n, w.longest, limit)
			}
			if err := w.check(); err != nil {
				t.Fatalf("n=%d limit=%d: %v", n, limit, err)
			}
			dst := NewBand(src.N, 0, 1)
			got, err := dst.ReadStream(bytes.NewReader(w.stream))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got.SHA256 = sha256.Sum256(w.stream)
			if !sameFingerprint(got, fp) {
				t.Fatalf("n=%d: decoded fingerprint %+v, written %+v", n, got, fp)
			}
			for c := range src.Data {
				for i := range src.Data[c] {
					if !sameBits(dst.Data[c][i], src.Data[c][i]) {
						t.Fatalf("n=%d cell %d of plane %d: %v, want the bits of %v", n, i, c, dst.Data[c][i], src.Data[c][i])
					}
				}
			}
		}
	}
}

// entryWriter collects a stream and where each write ended.
type entryWriter struct {
	stream  []byte
	ends    []int
	longest int
}

func (w *entryWriter) Write(p []byte) (int, error) {
	w.stream = append(w.stream, p...)
	w.ends = append(w.ends, len(w.stream))
	w.longest = max(w.longest, len(p))
	return len(p), nil
}

// check reports a write that ended inside the header or an entry.
func (w *entryWriter) check() error {
	at := bandHeaderBytes
	ok := map[int]bool{at: true}
	for at < len(w.stream) {
		_, k := binary.Uvarint(w.stream[at:])
		if at += k; at < len(w.stream) {
			at += CellBytes
		}
		ok[at] = true
	}
	for _, end := range w.ends {
		if !ok[end] {
			return fmt.Errorf("a write ended at byte %d, inside an entry", end)
		}
	}
	return nil
}

// TestReadCellsShortInput: a band stream cut inside its header, a zero
// count, a cell, between buffer chunks or before its last count fails
// with an EOF error instead of leaving a silently half-filled band, and
// the decoder reads nothing past a stream's end.
func TestReadCellsShortInput(t *testing.T) {
	src := awkwardBand(2*bufCells + 10)
	src.Data[1][3] = 0
	src.Data[2][300] = 0 // two zero runs
	var full bytes.Buffer
	if _, err := src.WriteStream(&full, 0); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 5, bandHeaderBytes, bandHeaderBytes + 3, bufCells * CellBytes, full.Len() - 1} {
		_, err := NewBand(src.N, 0, 1).ReadStream(bytes.NewReader(full.Bytes()[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
	}
	r := bytes.NewReader(append(full.Bytes(), 1, 2, 3))
	if _, err := NewBand(src.N, 0, 1).ReadStream(r); err != nil || r.Len() != 3 {
		t.Errorf("stream with 3 bytes after it: %v, %d bytes left unread", err, r.Len())
	}
	if _, err := NewBand(src.N, 0, 2).ReadStream(bytes.NewReader(full.Bytes())); err == nil || !strings.Contains(err.Error(), "header for rows [0, 1)") {
		t.Errorf("the stream of other rows: %v", err)
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestWriteCellsReportsWriterError: a writer failing after the first
// buffer of a stream fails WriteStream and Band.WriteStream.
func TestWriteCellsReportsWriterError(t *testing.T) {
	g := denseGrid(128)
	if _, _, err := WriteStream(&failingWriter{after: len(cellStream{}.buf)}, g); err == nil {
		t.Error("WriteStream swallowed the writer's error")
	}
	if _, err := g.Rows(0, 128).WriteStream(&failingWriter{after: 100}, 100); err == nil {
		t.Error("Band.WriteStream swallowed the writer's error")
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

// sameFingerprint compares fingerprints with their floats by bit
// pattern (a NaN sum is not == itself).
func sameFingerprint(a, b Fingerprint) bool {
	return a.SHA256 == b.SHA256 && a.GridSize == b.GridSize && a.Nonzero == b.Nonzero &&
		math.Float64bits(a.SumAbs) == math.Float64bits(b.SumAbs) &&
		math.Float64bits(a.PeakAbs) == math.Float64bits(b.PeakAbs)
}

// TestBandFingerprint: a band hashes its grid size, Lo and Hi as
// little-endian uint32 and then the stream of its cells, its
// diagnostics cover its cells only, and the empty span hashes the
// header and a zero tail alone.
func TestBandFingerprint(t *testing.T) {
	g := sparseGrid(9)
	for _, span := range [][2]int{{0, 9}, {2, 7}, {4, 4}} {
		b := g.Rows(span[0], span[1])
		var header bytes.Buffer
		binary.Write(&header, binary.LittleEndian, [3]uint32{9, uint32(span[0]), uint32(span[1])})
		want := Fingerprint{GridSize: 9, SHA256: sha256.Sum256(referenceStream(header.Bytes(), b.Data))}
		for c := range b.Data {
			for _, v := range b.Data[c] {
				if v != 0 {
					want.Nonzero++
					want.SumAbs += math.Hypot(real(v), imag(v))
					want.PeakAbs = max(want.PeakAbs, math.Hypot(real(v), imag(v)))
				}
			}
		}
		if got := b.Fingerprint(); got != want {
			t.Errorf("band %v: %+v, want %+v", span, got, want)
		}
	}
	if g.Rows(0, 9).Fingerprint().SHA256 == g.Fingerprint().SHA256 {
		t.Error("a full-height band hashes as the grid: the span is not in the hash")
	}
}

// TestHasherMatchesBandFingerprint: a band's cells written to the
// encoder plane by plane in runs of one row, three rows or the whole
// span fingerprint as Band.Fingerprint does, for an empty span and for spans holding -0
// components as well.
func TestHasherMatchesBandFingerprint(t *testing.T) {
	g := sparseGrid(9)
	g.Set(1, 3, 4, complex(math.Copysign(0, -1), 0))
	g.Set(2, 5, 0, complex(1, math.Copysign(0, -1)))
	for _, span := range [][2]int{{0, 9}, {2, 7}, {3, 6}, {4, 4}} {
		b := g.Rows(span[0], span[1])
		want := b.Fingerprint()
		for _, rows := range []int{1, 3, max(1, span[1]-span[0])} {
			h := newHasher(nil, 0, 9, span[0], span[1])
			for c := range b.Data {
				for y := span[0]; y < span[1]; y += rows {
					h.write(b.Data[c][(y-span[0])*9 : (min(y+rows, span[1])-span[0])*9])
				}
			}
			if got := h.sum(&[NrCorrelations][]complex128{}); !sameFingerprint(got, want) {
				t.Errorf("band %v in %d-row runs: %+v, want %+v", span, rows, got, want)
			}
		}
	}
}
