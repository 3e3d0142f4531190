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
)

// The grid stream is the one encoding a grid leaves memory in: what
// the fingerprint hashes, checkpoints store, reduction frames carry and
// the server's grid download (and idgdistrib -out) ships. It is the
// cells in the canonical order, plane by plane, row by row: each cell
// whose 128 bits are not all zero as the uvarint count of all-zero
// cells since the previous such cell, then its float64 real and
// imaginary bit patterns, little-endian; a last uvarint counts the
// trailing zero cells. A band's stream starts with its grid size, Lo
// and Hi (uint32, little-endian). -0 and NaN payloads are kept, so the
// stream pins every bit; the subgrids follow the uv tracks, so it is a
// small fraction of a gridded grid's cells.

// CellBytes is the encoded size of one grid cell.
const CellBytes = 16

// EntryBytes bounds one entry of a stream: a zero count and a cell, or
// the last count. A stream can be cut between any two entries.
const EntryBytes = binary.MaxVarintLen64 + CellBytes

// bandHeaderBytes is the size of a band stream's header.
const bandHeaderBytes = 12

// cellStream is the encoder's reused 64 KB buffer and hash.
type cellStream struct {
	h   hash.Hash
	buf [1 << 16]byte
}

var cellStreams = sync.Pool{New: func() any { return &cellStream{h: sha256.New()} }}

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

// add counts a cell written to the stream into the diagnostics.
func (fp *Fingerprint) add(v complex128) {
	if v == 0 {
		return // -0 parts: |±0| = 0 moves neither the sum nor the peak
	}
	fp.Nonzero++
	// float64(·) rounds each product before the add, as the assembly
	// does.
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

// Fingerprint hashes and summarizes g in one pass over its cells.
func (g *Grid) Fingerprint() Fingerprint {
	fp, _, _ := WriteStream(nil, g)
	return fp
}

// Fingerprint hashes and summarizes b: the SHA-256 of its stream, with
// the diagnostics over its cells.
func (b *Band) Fingerprint() Fingerprint {
	fp, _ := b.WriteStream(nil, 0)
	return fp
}

// WriteStream writes g's stream to w (nil: nowhere) and returns its
// fingerprint and length, from the one pass over g's cells.
func WriteStream(w io.Writer, g *Grid) (Fingerprint, int64, error) {
	h := newHasher(w, 0, g.N, -1, 0)
	fp := h.sum(&g.Data)
	return fp, h.len, h.err
}

// WriteStream writes b's stream to w (nil: nowhere) in Writes of at
// most limit bytes (<= 0: 64 KB), each ending between two entries, and
// returns its fingerprint from the same pass. limit must be at least
// EntryBytes.
func (b *Band) WriteStream(w io.Writer, limit int) (Fingerprint, error) {
	h := newHasher(w, limit, b.N, b.Lo, b.Hi)
	fp := h.sum(&b.Data)
	return fp, h.err
}

// hasher encodes the stream of cells written to it in the canonical
// order, a run at a time — a zero run carries across writes — into the
// pooled buffer, and flushes the buffer to the hash, and to w when set,
// as it fills.
type hasher struct {
	s     *cellStream
	w     io.Writer
	limit int    // the most bytes one flush sends
	n     int    // stream bytes waiting in s.buf
	run   uint64 // all-zero cells since the last cell written
	len   int64  // stream bytes flushed
	err   error  // w's first error; nothing is written after it
	fp    Fingerprint
}

// newHasher starts the stream of rows [lo, hi) of an n-pixel grid, or
// a whole grid's stream (no band header) when lo < 0.
func newHasher(w io.Writer, limit, n, lo, hi int) hasher {
	if lo > hi {
		panic(fmt.Sprintf("grid: streaming rows [%d, %d)", lo, hi))
	}
	s := cellStreams.Get().(*cellStream)
	s.h.Reset()
	if limit <= 0 || limit > len(s.buf) {
		limit = len(s.buf)
	}
	if limit < EntryBytes {
		panic(fmt.Sprintf("grid: %d-byte stream writes cannot hold a %d-byte entry", limit, EntryBytes))
	}
	h := hasher{s: s, w: w, limit: limit, fp: Fingerprint{GridSize: n}}
	if lo >= 0 {
		binary.LittleEndian.PutUint32(s.buf[0:], uint32(n))
		binary.LittleEndian.PutUint32(s.buf[4:], uint32(lo))
		binary.LittleEndian.PutUint32(s.buf[8:], uint32(hi))
		h.n = bandHeaderBytes
	}
	return h
}

// write adds the next cells in canonical order.
func (h *hasher) write(cells []complex128) {
	buf, last := h.s.buf[:], h.limit-EntryBytes
	n, run := h.n, h.run
	for _, v := range cells {
		re, im := math.Float64bits(real(v)), math.Float64bits(imag(v))
		if re|im == 0 {
			run++
			continue
		}
		if n > last { // no room for this entry
			h.flush(n)
			n = 0
		}
		n += binary.PutUvarint(buf[n:], run)
		cell := buf[n : n+CellBytes : n+CellBytes] // one bounds check per cell
		binary.LittleEndian.PutUint64(cell, re)
		binary.LittleEndian.PutUint64(cell[8:], im)
		n, run = n+CellBytes, 0
		h.fp.add(v)
	}
	h.n, h.run = n, run
}

// flush sends the first n bytes of the buffer on.
func (h *hasher) flush(n int) {
	h.s.h.Write(h.s.buf[:n])
	if h.w != nil && h.err == nil {
		_, h.err = h.w.Write(h.s.buf[:n])
	}
	h.len += int64(n)
}

// inlineHypot: on amd64 math.Hypot is assembly computing
// max·√(1+(min/max)²) step by step with no fused multiply-add, and a
// call the compiler cannot inline. Fingerprint.add spells that formula
// out for finite cells, bit for bit the call and ~10 % faster per
// delivered partial; elsewhere math.Hypot is Go the compiler may fuse,
// so every cell takes the call.
const inlineHypot = runtime.GOARCH == "amd64"

// sum writes every plane, ends the stream with its trailing zero run
// and returns the fingerprint of the cells written; h is spent.
func (h *hasher) sum(planes *[NrCorrelations][]complex128) Fingerprint {
	for c := range planes {
		h.write(planes[c])
	}
	if h.n > h.limit-binary.MaxVarintLen64 {
		h.flush(h.n)
		h.n = 0
	}
	h.flush(h.n + binary.PutUvarint(h.s.buf[h.n:], h.run))
	fp := h.fp
	// Not summed into fp: it would escape through the hash.Hash interface.
	copy(fp.SHA256[:], h.s.h.Sum(h.s.buf[:0]))
	cellStreams.Put(h.s)
	h.s = nil
	return fp
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

// StreamReader is what a stream decodes from: a bufio.Reader, a
// bytes.Reader, the payloads of a run of frames.
type StreamReader interface {
	io.Reader
	io.ByteReader
}

// ReadStream decodes the stream of an n-pixel grid, which must be all
// of r, bit for bit. It allocates the grid once n is in bounds and
// nothing that the stream's contents size.
func ReadStream(r io.Reader, n int) (*Grid, error) {
	if n < 1 || n > maxStreamGridSize {
		return nil, &StreamError{Reason: fmt.Sprintf("grid size %d outside [1, %d]", n, maxStreamGridSize)}
	}
	br := bufio.NewReader(r)
	g := NewGrid(n)
	if _, err := g.Rows(0, n).readCells(br); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		at := int64(NrCorrelations) * int64(n) * int64(n)
		if err == nil {
			return nil, &StreamError{Cell: at, Reason: "bytes after the stream's end"}
		}
		return nil, &StreamError{Cell: at, Reason: "after the stream's end", Err: err}
	}
	return g, nil
}

// ReadStream decodes the stream of b's band — its header must name b's
// grid size and rows — from r into b, whose cells must be zero, and
// stops at the stream's end, reading nothing past it. It returns the
// fingerprint of the cells less its SHA256: that is the hash of the
// bytes r gave, which the caller sees pass in bulk.
func (b *Band) ReadStream(r StreamReader) (Fingerprint, error) {
	var hdr [bandHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Fingerprint{}, &StreamError{Reason: "band header", Err: noEOF(err)}
	}
	n, lo, hi := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint32(hdr[8:])
	if int64(n) != int64(b.N) || int64(lo) != int64(b.Lo) || int64(hi) != int64(b.Hi) {
		return Fingerprint{}, &StreamError{Reason: fmt.Sprintf("header for rows [%d, %d) of a %d-pixel grid, not [%d, %d) of %d",
			lo, hi, n, b.Lo, b.Hi, b.N)}
	}
	return b.readCells(r)
}

// readCells is the decoder: it fills b's zeroed cells from the stream's
// entries up to its last count and returns the fingerprint of the cells
// less its SHA256.
func (b *Band) readCells(r StreamReader) (Fingerprint, error) {
	fp := Fingerprint{GridSize: b.N}
	plane := int64(len(b.Data[0]))
	cells := NrCorrelations * plane
	var at int64
	var cell [CellBytes]byte
	for {
		run, err := readUvarint(r)
		switch {
		case err != nil:
			return Fingerprint{}, &StreamError{Cell: at, Reason: "zero run", Err: noEOF(err)}
		case run > uint64(cells-at):
			return Fingerprint{}, &StreamError{Cell: at, Reason: fmt.Sprintf("zero run of %d past the last of %d cells", run, cells)}
		}
		if at += int64(run); at == cells {
			return fp, nil
		}
		if _, err := io.ReadFull(r, cell[:]); err != nil {
			return Fingerprint{}, &StreamError{Cell: at, Reason: "cell", Err: noEOF(err)}
		}
		re, im := binary.LittleEndian.Uint64(cell[:]), binary.LittleEndian.Uint64(cell[8:])
		if re|im == 0 {
			return Fingerprint{}, &StreamError{Cell: at, Reason: "an all-zero cell written out"}
		}
		v := complex(math.Float64frombits(re), math.Float64frombits(im))
		b.Data[at/plane][at%plane] = v
		fp.add(v)
		at++
	}
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
