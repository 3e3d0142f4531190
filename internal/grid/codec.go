package grid

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"sync"
	"unsafe"
)

// The grid stream. What the fingerprint hashes and WriteStream ships
// (the server's grid download, idgdistrib -out) is the cells in the
// canonical order, plane by plane, row by row: each cell whose 128
// bits are not all zero as the uvarint count of all-zero cells since
// the previous such cell, then its float64 real and imaginary bit
// patterns, little-endian; a last uvarint counts the trailing zero
// cells. A band's stream starts with its grid size, Lo and Hi (uint32,
// little-endian). -0 and NaN payloads are kept, so the stream pins
// every bit; the subgrids follow the uv tracks, so it is a small
// fraction of a gridded grid's cells.
//
// Checkpoint bands and reduction frames carry dense cells (EncodeCells,
// WriteCells): their closed-form sizes reject a short input before it
// allocates. A little-endian host's []complex128 memory already is
// that encoding, so the codec copies the memory itself; the per-cell
// loops are every other host's path and the tests' oracle.

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

// WriteCells streams src to w as dense cells.
func WriteCells(w io.Writer, src []complex128) error {
	s := cellStreams.Get().(*cellStream)
	defer cellStreams.Put(s)
	for len(src) > 0 {
		n := min(len(src), streamCells)
		b := cellMemory(src[:n])
		if !hostLE {
			b = s.buf[:CellBytes*n]
			EncodeCells(b, src[:n])
		}
		if _, err := w.Write(b); err != nil {
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
// its stream, plus diagnostics for explaining a mismatch (cells != 0,
// sum and peak of |cell| in canonical order). Comparable with ==.
type Fingerprint struct {
	GridSize int
	Nonzero  int64
	SumAbs   float64
	PeakAbs  float64
	SHA256   [32]byte
}

// Fingerprint hashes and summarizes g in one pass over its cells.
func (g *Grid) Fingerprint() Fingerprint {
	fp, _ := g.FingerprintStream()
	return fp
}

// FingerprintStream is Fingerprint and the length of g's stream, from
// the same pass.
func (g *Grid) FingerprintStream() (Fingerprint, int64) {
	h := newHasher(nil, g.N, -1, 0)
	fp := h.sum(&g.Data, true)
	return fp, h.len
}

// Fingerprint hashes and summarizes b: the SHA-256 of its stream, with
// the diagnostics over its cells.
func (b *Band) Fingerprint() Fingerprint {
	h := NewHasher(b.N, b.Lo, b.Hi)
	return h.sum(&b.Data, true)
}

// WriteStream writes g's stream to w.
func WriteStream(w io.Writer, g *Grid) error {
	h := newHasher(w, g.N, -1, 0)
	h.sum(&g.Data, false)
	return h.err
}

// Hasher accumulates the Fingerprint of rows [lo, hi) of an n-pixel
// grid from their cells written in the canonical order — plane by
// plane, row by row — a run at a time, so a band that arrives or
// leaves in pieces is fingerprinted as each piece passes, without a
// second pass over the band. The stream is encoded into the pooled
// buffer and flushed to the hash (or WriteStream's writer) as it
// fills; a zero run carries across Writes.
type Hasher struct {
	s   *cellStream
	w   io.Writer // where the stream goes: s.h, or WriteStream's writer
	n   int       // stream bytes waiting in s.buf
	run uint64    // all-zero cells since the last cell written
	len int64     // stream bytes flushed
	err error     // w's first error; nothing is written after it
	fp  Fingerprint
}

// NewHasher starts the fingerprint of Band{N: n, Lo: lo, Hi: hi}.
func NewHasher(n, lo, hi int) Hasher {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("grid: hashing rows [%d, %d)", lo, hi))
	}
	return newHasher(nil, n, lo, hi)
}

// newHasher is NewHasher, or a whole grid's stream (no band header)
// when lo < 0, sent to w instead of the hash when w is not nil.
func newHasher(w io.Writer, n, lo, hi int) Hasher {
	s := cellStreams.Get().(*cellStream)
	s.h.Reset()
	if w == nil {
		w = s.h
	}
	h := Hasher{s: s, w: w, fp: Fingerprint{GridSize: n}}
	if lo >= 0 {
		binary.LittleEndian.PutUint32(s.buf[0:], uint32(n))
		binary.LittleEndian.PutUint32(s.buf[4:], uint32(lo))
		binary.LittleEndian.PutUint32(s.buf[8:], uint32(hi))
		h.n = 12
	}
	return h
}

// Write adds the next cells in canonical order.
func (h *Hasher) Write(cells []complex128) { h.write(cells, true) }

// write encodes cells into the stream and, when diag is set, adds the
// nonzero ones to the diagnostics.
func (h *Hasher) write(cells []complex128, diag bool) {
	fp, buf := &h.fp, h.s.buf[:]
	n, run := h.n, h.run
	for _, v := range cells {
		re, im := math.Float64bits(real(v)), math.Float64bits(imag(v))
		if re|im == 0 {
			run++
			continue
		}
		if n > len(buf)-2*binary.MaxVarintLen64-CellBytes { // room for this cell and the tail
			h.flush(n)
			n = 0
		}
		n += binary.PutUvarint(buf[n:], run)
		cell := buf[n : n+CellBytes : n+CellBytes] // one bounds check per cell
		binary.LittleEndian.PutUint64(cell, re)
		binary.LittleEndian.PutUint64(cell[8:], im)
		n, run = n+CellBytes, 0
		if !diag || v == 0 {
			continue // -0 parts: |±0| = 0 moves neither the sum nor the peak
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
	h.n, h.run = n, run
}

// flush sends the first n bytes of the buffer on.
func (h *Hasher) flush(n int) {
	if h.err == nil {
		_, h.err = h.w.Write(h.s.buf[:n])
	}
	h.len += int64(n)
}

// inlineHypot: on amd64 math.Hypot is assembly computing
// max·√(1+(min/max)²) step by step with no fused multiply-add, and a
// call the compiler cannot inline. Hasher.Write spells that formula
// out for finite cells, bit for bit the call and ~10 % faster per
// delivered partial; elsewhere math.Hypot is Go the compiler may fuse,
// so every cell takes the call.
const inlineHypot = runtime.GOARCH == "amd64"

// Sum ends the stream with its trailing zero run and returns the
// fingerprint of the cells written; h is spent.
func (h *Hasher) Sum() Fingerprint {
	h.flush(h.n + binary.PutUvarint(h.s.buf[h.n:], h.run))
	fp := h.fp
	// Not summed into fp: it would escape through the hash.Hash interface.
	copy(fp.SHA256[:], h.s.h.Sum(h.s.buf[:0]))
	cellStreams.Put(h.s)
	h.s = nil
	return fp
}

// sum writes every plane, adding to the diagnostics when diag is set,
// and ends the stream.
func (h *Hasher) sum(planes *[NrCorrelations][]complex128, diag bool) Fingerprint {
	for c := range planes {
		h.write(planes[c], diag)
	}
	return h.Sum()
}

// maxStreamGridSize bounds the grid size ReadStream accepts.
const maxStreamGridSize = 1 << 14

// StreamError reports a malformed grid stream: what was wrong, at
// which cell, and the reader's error when that was the cause.
type StreamError struct {
	Cell   int64
	Reason string
	Err    error
}

func (e *StreamError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("grid: stream at cell %d: %s: %v", e.Cell, e.Reason, e.Err)
	}
	return fmt.Sprintf("grid: stream at cell %d: %s", e.Cell, e.Reason)
}

func (e *StreamError) Unwrap() error { return e.Err }

// ReadStream decodes the stream of an n-pixel grid, which must be all
// of r, bit for bit. It allocates the grid once n is in bounds and
// nothing that the stream's contents size.
func ReadStream(r io.Reader, n int) (*Grid, error) {
	if n < 1 || n > maxStreamGridSize {
		return nil, &StreamError{Reason: fmt.Sprintf("grid size %d outside [1, %d]", n, maxStreamGridSize)}
	}
	br := bufio.NewReader(r)
	g := NewGrid(n)
	plane, cells := int64(n)*int64(n), int64(NrCorrelations)*int64(n)*int64(n)
	var at int64
	var cell [CellBytes]byte
	for {
		run, err := readUvarint(br)
		switch {
		case err != nil:
			return nil, &StreamError{Cell: at, Reason: "zero run", Err: noEOF(err)}
		case run > uint64(cells-at):
			return nil, &StreamError{Cell: at, Reason: fmt.Sprintf("zero run of %d past the grid's %d cells", run, cells)}
		}
		if at += int64(run); at == cells {
			break
		}
		if _, err := io.ReadFull(br, cell[:]); err != nil {
			return nil, &StreamError{Cell: at, Reason: "cell", Err: noEOF(err)}
		}
		re, im := binary.LittleEndian.Uint64(cell[:]), binary.LittleEndian.Uint64(cell[8:])
		if re|im == 0 {
			return nil, &StreamError{Cell: at, Reason: "an all-zero cell written out"}
		}
		g.Data[at/plane][at%plane] = complex(math.Float64frombits(re), math.Float64frombits(im))
		at++
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, &StreamError{Cell: at, Reason: "bytes after the stream's end"}
		}
		return nil, &StreamError{Cell: at, Reason: "after the stream's end", Err: err}
	}
	return g, nil
}

// readUvarint reads a uvarint in its shortest form.
func readUvarint(r io.ByteReader) (uint64, error) {
	var x uint64
	for s := 0; s < 64; s += 7 {
		b, err := r.ReadByte()
		switch {
		case err != nil:
			return 0, err
		case b >= 0x80:
			x |= uint64(b&0x7f) << s
		case b == 0 && s > 0 || s == 63 && b > 1:
			return 0, errBadUvarint
		default:
			return x | uint64(b)<<s, nil
		}
	}
	return 0, errBadUvarint
}

var errBadUvarint = errors.New("overlong or overflowing uvarint")

// noEOF turns an end of input inside a record into io.ErrUnexpectedEOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
