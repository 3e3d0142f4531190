package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// writeStream returns g's stream as WriteStream writes it, checking
// it against the length and hash of the fingerprint's pass.
func writeStream(t *testing.T, g *Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	fp, n, err := WriteStream(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteStream wrote %d bytes, measured %d", buf.Len(), n)
	}
	if !sameFingerprint(fp, g.Fingerprint()) || fp.SHA256 != sha256.Sum256(buf.Bytes()) {
		t.Fatal("the written stream does not hash to the fingerprint")
	}
	return buf.Bytes()
}

// sameGrid reports whether a and b hold the same bits.
func sameGrid(a, b *Grid) bool {
	if a.N != b.N {
		return false
	}
	for c := range a.Data {
		for i := range a.Data[c] {
			if !sameBits(a.Data[c][i], b.Data[c][i]) {
				return false
			}
		}
	}
	return true
}

// awkwardGrid holds every pair of awkward parts among sparse cells.
func awkwardGrid() *Grid {
	g := sparseGrid(23)
	for i, re := range awkward {
		for j, im := range awkward {
			g.Data[(i+j)%NrCorrelations][11*i+j] = complex(re, im)
		}
	}
	return g
}

// denseGrid has no zero cell.
func denseGrid(n int) *Grid {
	g := NewGrid(n)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(float64(i+1), -float64(c))
		}
	}
	return g
}

// TestStreamRoundTrip: the stream is the per-cell reference byte for
// byte, across the encoder's buffer flushes, and decodes to the grid
// bit for bit.
func TestStreamRoundTrip(t *testing.T) {
	grids := []*Grid{NewGrid(1), NewGrid(7), sparseGrid(1), sparseGrid(65), sparseGrid(130), awkwardGrid(), denseGrid(1), denseGrid(70)}
	for i, g := range grids {
		stream := writeStream(t, g)
		if !bytes.Equal(stream, referenceStream(nil, g.Data)) {
			t.Fatalf("grid %d: stream differs from the per-cell reference", i)
		}
		got, err := ReadStream(bytes.NewReader(stream), g.N)
		if err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
		if !sameGrid(got, g) {
			t.Fatalf("grid %d: decoded bits differ", i)
		}
	}
}

// TestStreamBitPatterns: a cell that differs from +0 only in a sign
// bit, or a NaN that differs only in its payload, moves the hash and
// round-trips through WriteStream and ReadStream bit for bit.
func TestStreamBitPatterns(t *testing.T) {
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	pairs := []struct {
		name string
		a, b complex128
	}{
		{"+0 -> -0 real", 0, complex(math.Copysign(0, -1), 0)},
		{"+0 -> -0 imaginary", 0, complex(0, math.Copysign(0, -1))},
		{"NaN payload", complex(nan(1), 0), complex(nan(2), 0)},
		{"NaN sign", complex(1, nan(0)), complex(1, -nan(0))},
	}
	for _, p := range pairs {
		ga, gb := sparseGrid(9), sparseGrid(9)
		ga.Data[3][40], gb.Data[3][40] = p.a, p.b
		if ga.Fingerprint().SHA256 == gb.Fingerprint().SHA256 {
			t.Errorf("%s: the fingerprints agree", p.name)
		}
		for _, g := range []*Grid{ga, gb} {
			got, err := ReadStream(bytes.NewReader(writeStream(t, g)), g.N)
			if err != nil || !sameBits(got.Data[3][40], g.Data[3][40]) || !sameGrid(got, g) {
				t.Errorf("%s: round trip of %v: %v", p.name, g.Data[3][40], err)
			}
		}
	}
}

// TestStreamSizes: an all-zero grid's stream is the one tail uvarint;
// a grid with no zero cell costs a byte per cell (its zero run) and the
// one-byte tail more than its dense cells.
func TestStreamSizes(t *testing.T) {
	for _, n := range []int{1, 8, 100} {
		cells := uint64(NrCorrelations * n * n)
		if got, want := writeStream(t, NewGrid(n)), binary.AppendUvarint(nil, cells); !bytes.Equal(got, want) {
			t.Errorf("n=%d: all-zero stream % x, want % x", n, got, want)
		}
		dense := CellBytes * int(cells)
		if got := len(writeStream(t, denseGrid(n))); got > dense+int(cells)+1 {
			t.Errorf("n=%d: a grid with no zero cell streams %d bytes, dense %d", n, got, dense)
		}
	}
}

// TestReadStreamHostile: every malformed stream or size is a
// *StreamError, and reading it allocates no more than the declared
// grid.
func TestReadStreamHostile(t *testing.T) {
	const n = 8
	cells := uint64(NrCorrelations * n * n)
	g := sparseGrid(n)
	g.Data[NrCorrelations-1][n*n-1] = 1 // the last cell is written, so the tail is a lone 0
	valid := writeStream(t, g)
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cell := make([]byte, CellBytes)
	cell[0] = 1
	cases := []struct {
		name   string
		n      int
		stream []byte
	}{
		{"empty", n, nil},
		{"truncated cell", n, cat(uv(3), cell[:9])},
		{"cut inside the stream", n, valid[:len(valid)/2]},
		{"missing tail", n, valid[:len(valid)-1]},
		{"overlong uvarint", n, cat([]byte{0x83, 0x00}, cell, uv(cells-4))},
		{"overlong zero", n, []byte{0x80, 0x00}},
		{"overflowing uvarint", n, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"uvarint of eleven bytes", n, bytes.Repeat([]byte{0x80}, 11)},
		{"uvarint cut short", n, []byte{0x80}},
		{"zero run past the cells", n, uv(cells + 1)},
		{"cell then a run past the cells", n, cat(uv(0), cell, uv(cells))},
		{"all-zero cell written out", n, cat(uv(0), make([]byte, CellBytes), uv(cells-1))},
		{"trailing bytes", n, cat(valid, []byte{0})},
		{"a second tail", n, cat(uv(cells), uv(0))},
		{"size 0", 0, uv(0)},
		{"negative size", -3, uv(0)},
		{"size over the cap", maxStreamGridSize + 1, uv(0)},
		{"huge size", math.MaxInt, uv(0)},
	}
	for _, tc := range cases {
		var err error
		allocated := allocatedBytes(func() { _, err = ReadStream(bytes.NewReader(tc.stream), tc.n) })
		var se *StreamError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v (%T), want a *StreamError", tc.name, err, err)
		}
		limit := uint64(1 << 13) // the 4 KB read buffer and the error
		if tc.n >= 1 && tc.n <= n {
			limit += uint64(NrCorrelations * CellBytes * tc.n * tc.n)
		}
		if allocated > limit {
			t.Errorf("%s: allocated %d bytes, the declared grid is %d", tc.name, allocated, limit)
		}
	}
	bad := errors.New("connection reset")
	_, err := ReadStream(io.MultiReader(bytes.NewReader(valid[:20]), errReader{bad}), n)
	if se := (*StreamError)(nil); !errors.As(err, &se) || !errors.Is(err, bad) {
		t.Errorf("reader failure: %v, want a *StreamError wrapping it", err)
	}
	if _, err := ReadStream(bytes.NewReader(valid), n); err != nil {
		t.Fatalf("the valid stream: %v", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// allocatedBytes is what f allocates on the heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDenseOracle: the dense oracle reproduces the fingerprints the
// dense definition recorded for these grids, so the hashes pinned with
// it elsewhere keep their meaning.
func TestDenseOracle(t *testing.T) {
	for n, want := range map[int]string{
		9:  "1bf343b333704c40a674108f8ffc1a8cbc5a673e59b03481b25c93c0b251019a",
		65: "5ec56f56dae256c303cb533369baf9778820e9c761a1094e388e09e46b3e83db",
	} {
		if sum := denseSHA256(sparseGrid(n)); hex.EncodeToString(sum[:]) != want {
			t.Errorf("n=%d: dense oracle %x, recorded %s", n, sum, want)
		}
	}
}
