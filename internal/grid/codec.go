package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"
	"sync"
	"unsafe"
)

// The canonical cell codec. Every grid byte stream of the repository —
// checkpoint bands, reduction frames, WriteGridBinary, the fingerprint
// — is correlation-plane-major cells, each its float64 real then
// imaginary bit pattern, little-endian. Bit patterns (-0, NaN payloads)
// round-trip unchanged, so a restored or received grid hashes as sent.
//
// On a little-endian host a []complex128's memory already is that
// encoding, so the codec copies, writes and hashes the memory itself;
// the per-cell loops are the path of every other host and the tests'
// oracle.

// CellBytes is the encoded size of one grid cell.
const CellBytes = 16

// streamCells is how many cells the streaming forms move through their
// reused 64 KB buffer at a time.
const streamCells = 4096

// hostLE reports a little-endian host. A variable, not a constant, so
// the tests can run the portable path on any host.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// cellMemory is src's memory as bytes: its canonical encoding when
// hostLE.
func cellMemory(src []complex128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(src))), CellBytes*len(src))
}

// EncodeCells writes src into dst[:CellBytes*len(src)].
func EncodeCells(dst []byte, src []complex128) {
	dst = dst[:CellBytes*len(src)]
	if hostLE {
		copy(dst, cellMemory(src))
		return
	}
	for _, v := range src {
		cell := dst[:CellBytes:CellBytes] // one bounds check per cell
		binary.LittleEndian.PutUint64(cell, math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(cell[8:], math.Float64bits(imag(v)))
		dst = dst[CellBytes:]
	}
}

// DecodeCells fills dst from src[:CellBytes*len(dst)].
func DecodeCells(dst []complex128, src []byte) {
	src = src[:CellBytes*len(dst)]
	if hostLE {
		copy(cellMemory(dst), src)
		return
	}
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(src[CellBytes*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(src[CellBytes*i+8:]))
		dst[i] = complex(re, im)
	}
}

// cellStream is the streaming forms' reused chunk buffer and hash.
type cellStream struct {
	h   hash.Hash
	buf [streamCells * CellBytes]byte
}

var cellStreams = sync.Pool{New: func() any { return &cellStream{h: sha256.New()} }}

// encode returns the canonical bytes of src (at most streamCells cells):
// its memory on a little-endian host, else s.buf encoded.
func (s *cellStream) encode(src []complex128) []byte {
	if hostLE {
		return cellMemory(src)
	}
	EncodeCells(s.buf[:], src)
	return s.buf[:CellBytes*len(src)]
}

// WriteCells streams src to w in the canonical encoding.
func WriteCells(w io.Writer, src []complex128) error {
	s := cellStreams.Get().(*cellStream)
	defer cellStreams.Put(s)
	for len(src) > 0 {
		n := min(len(src), streamCells)
		if _, err := w.Write(s.encode(src[:n])); err != nil {
			return err
		}
		src = src[n:]
	}
	return nil
}

// ReadCells fills dst from r; a short stream is an io.ReadFull error.
func ReadCells(r io.Reader, dst []complex128) error {
	s := cellStreams.Get().(*cellStream)
	defer cellStreams.Put(s)
	for len(dst) > 0 {
		n := min(len(dst), streamCells)
		if _, err := io.ReadFull(r, s.buf[:n*CellBytes]); err != nil {
			return err
		}
		DecodeCells(dst[:n], s.buf[:])
		dst = dst[n:]
	}
	return nil
}

// Fingerprint pins the exact bits of a grid or band: the SHA-256 of
// its canonical encoding, plus diagnostics for explaining a mismatch
// (cells != 0, sum and peak of |cell| in canonical order). Comparable
// with ==.
type Fingerprint struct {
	GridSize int
	Nonzero  int64
	SumAbs   float64
	PeakAbs  float64
	SHA256   [32]byte
}

// Fingerprint hashes and summarizes g in one pass over its cells.
func (g *Grid) Fingerprint() Fingerprint { return fingerprint(g.N, -1, 0, &g.Data) }

// Fingerprint hashes and summarizes b: the SHA-256 of its grid size,
// Lo and Hi (uint32, little-endian) and then its cells in the canonical
// order, with the diagnostics over those cells.
func (b *Band) Fingerprint() Fingerprint { return fingerprint(b.N, b.Lo, b.Hi, &b.Data) }

// fingerprint hashes the planes of an n-pixel grid, after the band
// header n | lo | hi when lo >= 0.
func fingerprint(n, lo, hi int, planes *[NrCorrelations][]complex128) Fingerprint {
	s := cellStreams.Get().(*cellStream)
	defer cellStreams.Put(s)
	s.h.Reset()
	if lo >= 0 {
		binary.LittleEndian.PutUint32(s.buf[0:], uint32(n))
		binary.LittleEndian.PutUint32(s.buf[4:], uint32(lo))
		binary.LittleEndian.PutUint32(s.buf[8:], uint32(hi))
		s.h.Write(s.buf[:12])
	}
	fp := Fingerprint{GridSize: n}
	for c := range planes {
		for src := planes[c]; len(src) > 0; {
			chunk := src[:min(len(src), streamCells)]
			src = src[len(chunk):]
			s.h.Write(s.encode(chunk))
			for _, v := range chunk {
				if v == 0 {
					continue // |±0| = 0 moves neither the sum nor the peak
				}
				fp.Nonzero++
				a := math.Hypot(real(v), imag(v))
				fp.SumAbs += a
				if a > fp.PeakAbs {
					fp.PeakAbs = a
				}
			}
		}
	}
	// Not summed into fp: it would escape through the hash.Hash interface.
	copy(fp.SHA256[:], s.h.Sum(s.buf[:0]))
	return fp
}
