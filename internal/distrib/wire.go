package distrib

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/grid"
)

// Reduction stream: after a worker finishes gridding its partition it
// dials the coordinator and sends
//
//	FrameHello | FrameBand* | FrameResult
//
// as internal/frame frames. The hello announces the row span [lo, hi)
// the partial grid touched; the bands carry exactly those rows, plane
// by plane and in row order within a plane — the order the band
// fingerprint hashes cells in — chunked so each frame stays under the
// payload cap; the closing result frame carries the sender's
// fingerprint of that band. Both sides accumulate the fingerprint over
// each frame's cells as the frame passes (grid.Hasher), and the
// coordinator accepts the partial only if its sum matches the declared
// one: a truncated, reordered or out-of-span stream is discarded, not
// merged.
//
// Two checks guard every stream, and each catches what the other
// cannot. The frame CRC (internal/frame) rejects a frame damaged on
// the way before anything is decoded from it, and names that frame.
// The band fingerprint rejects frames that are each intact but
// together carry cells other than the ones the worker declared: a
// stale, reordered or wrong-partition band.
const (
	// FrameHello opens a worker's reduction stream: payload = worker
	// uint32 | workers uint32 | axis uint8 | plan fingerprint 32 bytes
	// (the checkpoint.PlanFingerprint of the worker's sub-plan, so the
	// coordinator can reject a worker gridding the wrong partition) |
	// lo uint32 | hi uint32, the row span its bands cover.
	FrameHello byte = 16
	// FrameBand carries rows [lo, hi) of one correlation plane of the
	// partial grid: payload = gridSize uint32 | plane uint32 | lo
	// uint32 | hi uint32 | (hi-lo) rows of gridSize complex128 cells,
	// each cell little-endian float64 (re, im) — the canonical cell
	// encoding of grid.WriteCells, checkpoints and the grid fingerprint.
	FrameBand byte = 17
	// FrameResult closes the stream: payload = worker uint32 | gridSize
	// uint32 | nonzero uint64 | sumAbs float64 | peakAbs float64 |
	// SHA-256 32 bytes, the sender's grid.Band fingerprint of its span.
	FrameResult byte = 18
)

const (
	helloPayloadBytes = 4 + 4 + 1 + 32 + 4 + 4
	// bandPayloadHeader is the fixed prefix of a FrameBand payload.
	bandPayloadHeader = 16
	// bandFrameCells bounds the cell bytes of one FrameBand so that
	// each side's passes over a frame (encode, fingerprint, CRC, write;
	// read, CRC, decode, fingerprint) find its cells still in a core's
	// cache: 1 MB frames deliver a dense partial ~10 % faster than
	// 4 MB ones (BenchmarkReductionStream).
	bandFrameCells     = 1 << 20
	cellBytes          = grid.CellBytes
	resultPayloadBytes = 4 + 4 + 8 + 8 + 8 + 32
)

// reduceRules is the frame-type table of the reduction stream; each
// rule length-checks its type before the reader allocates the payload.
var reduceRules = frame.Rules{
	FrameHello: func(n int64) error {
		if n != helloPayloadBytes {
			return fmt.Errorf("distrib: FrameHello payload of %d bytes, want %d", n, helloPayloadBytes)
		}
		return nil
	},
	FrameBand: func(n int64) error {
		if n < bandPayloadHeader || (n-bandPayloadHeader)%cellBytes != 0 {
			return fmt.Errorf("distrib: FrameBand payload of %d bytes is not %d + k*%d", n, bandPayloadHeader, cellBytes)
		}
		return nil
	},
	FrameResult: func(n int64) error {
		if n != resultPayloadBytes {
			return fmt.Errorf("distrib: FrameResult payload of %d bytes, want %d", n, resultPayloadBytes)
		}
		return nil
	},
}

// Hello announces one worker's reduction stream.
type Hello struct {
	Worker  int
	Workers int
	Axis    Axis
	// PlanSum fingerprints the sub-plan the worker gridded.
	PlanSum [32]byte
	// Lo and Hi bound the rows the worker's bands cover
	// (grid.NonzeroRowSpan of its partial; Lo == Hi for an empty
	// partition).
	Lo, Hi int
}

// EncodeHello builds the opening frame of a reduction stream.
func EncodeHello(h Hello) frame.Frame {
	p := make([]byte, helloPayloadBytes)
	binary.LittleEndian.PutUint32(p[0:], uint32(h.Worker))
	binary.LittleEndian.PutUint32(p[4:], uint32(h.Workers))
	p[8] = byte(h.Axis)
	copy(p[9:], h.PlanSum[:])
	binary.LittleEndian.PutUint32(p[41:], uint32(h.Lo))
	binary.LittleEndian.PutUint32(p[45:], uint32(h.Hi))
	return frame.Frame{Type: FrameHello, Payload: p}
}

// DecodeHello decodes a FrameHello payload.
func DecodeHello(f frame.Frame) (Hello, error) {
	if f.Type != FrameHello || len(f.Payload) != helloPayloadBytes {
		return Hello{}, fmt.Errorf("distrib: decoding frame type %d (%d bytes) as FrameHello", f.Type, len(f.Payload))
	}
	h := Hello{
		Worker:  int(binary.LittleEndian.Uint32(f.Payload[0:])),
		Workers: int(binary.LittleEndian.Uint32(f.Payload[4:])),
		Axis:    Axis(f.Payload[8]),
		Lo:      int(binary.LittleEndian.Uint32(f.Payload[41:])),
		Hi:      int(binary.LittleEndian.Uint32(f.Payload[45:])),
	}
	copy(h.PlanSum[:], f.Payload[9:41])
	if h.Axis != AxisRows && h.Axis != AxisWPlanes {
		return Hello{}, fmt.Errorf("distrib: FrameHello with unknown axis %d", f.Payload[8])
	}
	if h.Lo < 0 || h.Lo > h.Hi {
		return Hello{}, fmt.Errorf("distrib: FrameHello with row span [%d, %d)", h.Lo, h.Hi)
	}
	return h, nil
}

// BandRowsPerFrame returns how many grid rows of one correlation
// plane go in one FrameBand: as many as fit under the payload cap
// (<= 0: frame.DefaultMaxPayload) and in bandFrameCells, at least 1 —
// a cap below MinPayload is a configuration error the callers reject
// up front.
func BandRowsPerFrame(gridSize, maxPayload int) int {
	if maxPayload <= 0 {
		maxPayload = frame.DefaultMaxPayload
	}
	return max(1, min(maxPayload-bandPayloadHeader, bandFrameCells)/(cellBytes*gridSize))
}

// MinPayload is the smallest payload cap a reduction stream of a
// gridSize-pixel grid fits under: one row of one plane plus the band
// header, or the hello or result frame when those are larger.
func MinPayload(gridSize int) int {
	return max(bandPayloadHeader+gridSize*cellBytes, helloPayloadBytes, resultPayloadBytes)
}

// EncodeBand builds the FrameBand of rows [lo, hi) of g's first
// correlation plane. A delivery (Deliver) sends such frames for every
// plane, so a loop of EncodeBand over a span encodes a quarter of one.
func EncodeBand(g *grid.Grid, lo, hi int) (frame.Frame, error) {
	return encodeBandInto(nil, g, 0, lo, hi)
}

// encodeBandInto builds the FrameBand of rows [lo, hi) of g's plane c
// into buf's storage (replaced when too small); the frame aliases it
// until it has been written out.
func encodeBandInto(buf []byte, g *grid.Grid, c, lo, hi int) (frame.Frame, error) {
	if lo < 0 || hi > g.N || lo >= hi || c < 0 || c >= grid.NrCorrelations {
		return frame.Frame{}, fmt.Errorf("distrib: band rows [%d, %d) of plane %d outside %d-row grid", lo, hi, c, g.N)
	}
	if n := bandPayloadHeader + (hi-lo)*g.N*cellBytes; cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(g.N))
	binary.LittleEndian.PutUint32(buf[4:], uint32(c))
	binary.LittleEndian.PutUint32(buf[8:], uint32(lo))
	binary.LittleEndian.PutUint32(buf[12:], uint32(hi))
	grid.EncodeCells(buf[bandPayloadHeader:], g.Data[c][lo*g.N:hi*g.N])
	return frame.Frame{Type: FrameBand, Payload: buf}, nil
}

// DecodeBandInto restores a FrameBand's rows into dst (overwriting,
// not accumulating: bands of one stream are disjoint) and returns the
// cells it wrote, of plane c, rows [lo, hi). The embedded grid size,
// plane and row range are cross-checked against dst's size and rows and
// the payload length before any write.
func DecodeBandInto(dst *grid.Band, f frame.Frame) (c, lo, hi int, cells []complex128, err error) {
	if f.Type != FrameBand || len(f.Payload) < bandPayloadHeader {
		return 0, 0, 0, nil, fmt.Errorf("distrib: decoding frame type %d (%d bytes) as FrameBand", f.Type, len(f.Payload))
	}
	n := int(binary.LittleEndian.Uint32(f.Payload[0:]))
	c = int(binary.LittleEndian.Uint32(f.Payload[4:]))
	lo = int(binary.LittleEndian.Uint32(f.Payload[8:]))
	hi = int(binary.LittleEndian.Uint32(f.Payload[12:]))
	if n != dst.N {
		return 0, 0, 0, nil, fmt.Errorf("distrib: band for a %d-pixel grid arriving at a %d-pixel grid", n, dst.N)
	}
	if c < 0 || c >= grid.NrCorrelations {
		return 0, 0, 0, nil, fmt.Errorf("distrib: band of correlation plane %d (there are %d)", c, grid.NrCorrelations)
	}
	if lo < dst.Lo || hi > dst.Hi || lo >= hi {
		return 0, 0, 0, nil, fmt.Errorf("distrib: band rows [%d, %d) outside the span [%d, %d)", lo, hi, dst.Lo, dst.Hi)
	}
	if want := bandPayloadHeader + (hi-lo)*n*cellBytes; len(f.Payload) != want {
		return 0, 0, 0, nil, fmt.Errorf("distrib: band [%d, %d) carries %d payload bytes, want %d", lo, hi, len(f.Payload), want)
	}
	cells = dst.Data[c][(lo-dst.Lo)*n : (hi-dst.Lo)*n]
	grid.DecodeCells(cells, f.Payload[bandPayloadHeader:])
	return c, lo, hi, cells, nil
}

// Fingerprint is what partials are declared and verified with: the
// grid.Band fingerprint of the span, over the canonical cell bytes
// FrameBand carries, so a band assembled from a full-cover stream
// fingerprints identically to the sender's.
type Fingerprint = grid.Fingerprint

// FingerprintOf hashes and summarizes the whole grid g.
func FingerprintOf(g *grid.Grid) Fingerprint { return g.Fingerprint() }

// Result closes a worker's reduction stream with its band fingerprint.
type Result struct {
	Worker      int
	Fingerprint Fingerprint
}

// EncodeResult builds the closing frame of a reduction stream.
func EncodeResult(r Result) frame.Frame {
	p := make([]byte, resultPayloadBytes)
	binary.LittleEndian.PutUint32(p[0:], uint32(r.Worker))
	binary.LittleEndian.PutUint32(p[4:], uint32(r.Fingerprint.GridSize))
	binary.LittleEndian.PutUint64(p[8:], uint64(r.Fingerprint.Nonzero))
	binary.LittleEndian.PutUint64(p[16:], math.Float64bits(r.Fingerprint.SumAbs))
	binary.LittleEndian.PutUint64(p[24:], math.Float64bits(r.Fingerprint.PeakAbs))
	copy(p[32:], r.Fingerprint.SHA256[:])
	return frame.Frame{Type: FrameResult, Payload: p}
}

// DecodeResult decodes a FrameResult payload.
func DecodeResult(f frame.Frame) (Result, error) {
	if f.Type != FrameResult || len(f.Payload) != resultPayloadBytes {
		return Result{}, fmt.Errorf("distrib: decoding frame type %d (%d bytes) as FrameResult", f.Type, len(f.Payload))
	}
	r := Result{
		Worker: int(binary.LittleEndian.Uint32(f.Payload[0:])),
		Fingerprint: Fingerprint{
			GridSize: int(binary.LittleEndian.Uint32(f.Payload[4:])),
			Nonzero:  int64(binary.LittleEndian.Uint64(f.Payload[8:])),
			SumAbs:   math.Float64frombits(binary.LittleEndian.Uint64(f.Payload[16:])),
			PeakAbs:  math.Float64frombits(binary.LittleEndian.Uint64(f.Payload[24:])),
		},
	}
	copy(r.Fingerprint.SHA256[:], f.Payload[32:])
	return r, nil
}
