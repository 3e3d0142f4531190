package grid

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
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
func (g *Grid) Fingerprint() Fingerprint {
	h := newHasher(g.N, -1, 0)
	return h.sum(&g.Data)
}

// Fingerprint hashes and summarizes b: the SHA-256 of its grid size,
// Lo and Hi (uint32, little-endian) and then its cells in the canonical
// order, with the diagnostics over those cells.
func (b *Band) Fingerprint() Fingerprint {
	h := NewHasher(b.N, b.Lo, b.Hi)
	return h.sum(&b.Data)
}

// Hasher accumulates the Fingerprint of rows [lo, hi) of an n-pixel
// grid from their cells written in the canonical order — plane by
// plane, row by row — a run at a time, so a band that arrives or
// leaves in pieces is fingerprinted as each piece passes, without a
// second pass over the band.
type Hasher struct {
	s  *cellStream
	fp Fingerprint
}

// NewHasher starts the fingerprint of Band{N: n, Lo: lo, Hi: hi}.
func NewHasher(n, lo, hi int) Hasher {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("grid: hashing rows [%d, %d)", lo, hi))
	}
	return newHasher(n, lo, hi)
}

// newHasher is NewHasher, or a whole grid's hash (no band header) when
// lo < 0.
func newHasher(n, lo, hi int) Hasher {
	s := cellStreams.Get().(*cellStream)
	s.h.Reset()
	if lo >= 0 {
		binary.LittleEndian.PutUint32(s.buf[0:], uint32(n))
		binary.LittleEndian.PutUint32(s.buf[4:], uint32(lo))
		binary.LittleEndian.PutUint32(s.buf[8:], uint32(hi))
		s.h.Write(s.buf[:12])
	}
	return Hasher{s: s, fp: Fingerprint{GridSize: n}}
}

// Write adds the next cells in canonical order.
func (h *Hasher) Write(cells []complex128) {
	fp := &h.fp
	for len(cells) > 0 {
		chunk := cells[:min(len(cells), streamCells)]
		cells = cells[len(chunk):]
		h.s.h.Write(h.s.encode(chunk))
		for _, v := range chunk {
			if v == 0 {
				continue // |±0| = 0 moves neither the sum nor the peak
			}
			fp.Nonzero++
			// float64(·) rounds each product before the add, as the
			// assembly does.
			var a float64
			if p, q := math.Abs(real(v)), math.Abs(imag(v)); inlineHypot && q <= p && p <= math.MaxFloat64 {
				q /= p
				a = p * math.Sqrt(1+float64(q*q))
			} else if inlineHypot && p < q && q <= math.MaxFloat64 {
				p /= q
				a = q * math.Sqrt(1+float64(p*p))
			} else {
				a = math.Hypot(real(v), imag(v))
			}
			fp.SumAbs += a
			if a > fp.PeakAbs {
				fp.PeakAbs = a
			}
		}
	}
}

// inlineHypot: on amd64 math.Hypot is assembly computing
// max·√(1+(min/max)²) step by step with no fused multiply-add, and a
// call the compiler cannot inline. Hasher.Write spells that formula
// out for finite cells, bit for bit the call and ~10 % faster per
// delivered partial; elsewhere math.Hypot is Go the compiler may fuse,
// so every cell takes the call.
const inlineHypot = runtime.GOARCH == "amd64"

// Sum returns the fingerprint of the cells written; h is spent.
func (h *Hasher) Sum() Fingerprint {
	fp := h.fp
	// Not summed into fp: it would escape through the hash.Hash interface.
	copy(fp.SHA256[:], h.s.h.Sum(h.s.buf[:0]))
	cellStreams.Put(h.s)
	h.s = nil
	return fp
}

// sum writes every plane and returns the fingerprint.
func (h *Hasher) sum(planes *[NrCorrelations][]complex128) Fingerprint {
	for c := range planes {
		h.Write(planes[c])
	}
	return h.Sum()
}
