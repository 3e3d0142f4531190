package distrib

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"

	"repro/internal/frame"
	"repro/internal/grid"
)

// Reduction stream: after a worker finishes gridding its partition it
// dials the coordinator and sends
//
//	FrameHello | FrameBand+ | FrameResult
//
// as internal/frame frames. The hello announces the row span [lo, hi)
// the partial grid touched; the FrameBand payloads, joined in order,
// are byte for byte the grid stream of that band (grid.Band.WriteStream:
// its header, then the zero-run entries of its cells, plane by plane),
// cut between entries so each frame stays under the payload cap; the
// closing result frame carries the sender's fingerprint of the band,
// the SHA-256 of that stream. The coordinator hashes the payload bytes
// as they arrive and decodes them into the band it allocated from the
// hello, and accepts the partial only if the stream ends where the
// result frame begins, with nothing after it, and its fingerprint
// matches the declared one: a truncated, reordered or out-of-span
// stream is discarded, not merged.
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
	// FrameBand carries the next piece of the band's grid stream.
	FrameBand byte = 17
	// FrameResult closes the stream: payload = worker uint32 | gridSize
	// uint32 | nonzero uint64 | sumAbs float64 | peakAbs float64 |
	// SHA-256 32 bytes, the sender's grid.Band fingerprint of its span.
	FrameResult byte = 18
)

const (
	helloPayloadBytes  = 4 + 4 + 1 + 32 + 4 + 4
	resultPayloadBytes = 4 + 4 + 8 + 8 + 8 + 32
)

// MinPayload is the smallest payload cap a reduction stream fits
// under: the hello, the result and one stream entry each fill a frame.
const MinPayload = max(helloPayloadBytes, resultPayloadBytes, grid.EntryBytes)

// reduceRules is the frame-type table of the reduction stream; each
// rule length-checks its type before the reader allocates the payload.
var reduceRules = frame.Rules{
	FrameHello: func(n int64) error {
		if n != helloPayloadBytes {
			return fmt.Errorf("distrib: FrameHello payload of %d bytes, want %d", n, helloPayloadBytes)
		}
		return nil
	},
	FrameBand: func(int64) error { return nil }, // a stream is cut anywhere under the cap
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

// BandRowsPerFrame returns how many grid rows of a gridSize-pixel
// grid EncodeBand can put in one FrameBand under the payload cap
// (<= 0: frame.DefaultMaxPayload) whatever they hold — a written cell
// costs at most a byte of zero count more than its own bytes — and at
// least 1.
func BandRowsPerFrame(gridSize, maxPayload int) int {
	if maxPayload <= 0 {
		maxPayload = frame.DefaultMaxPayload
	}
	return max(1, (maxPayload-grid.EntryBytes)/(grid.NrCorrelations*gridSize*(1+grid.CellBytes)))
}

// EncodeBand builds the FrameBand that carries the whole grid stream of
// rows [lo, hi) of g: the frames a delivery of that span sends, in one.
func EncodeBand(g *grid.Grid, lo, hi int) (frame.Frame, error) {
	if lo < 0 || hi > g.N || lo >= hi {
		return frame.Frame{}, fmt.Errorf("distrib: band rows [%d, %d) outside %d-row grid", lo, hi, g.N)
	}
	var payload bytes.Buffer
	g.Rows(lo, hi).WriteStream(&payload, 0)
	return frame.Frame{Type: FrameBand, Payload: payload.Bytes()}, nil
}

// bandFrames sends each Write as one FrameBand.
type bandFrames struct{ w io.Writer }

func (b bandFrames) Write(p []byte) (int, error) {
	if err := frame.Write(b.w, frame.Frame{Type: FrameBand, Payload: p}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// bandReader reads the payloads of a reduction stream's FrameBands as
// one byte stream, each read into one reused buffer and hashed as it
// arrives. Any other frame ends the bands: it is kept in next, and
// reads fail.
type bandReader struct {
	r          io.Reader
	maxPayload int
	buf, rest  []byte // the payload buffer, and what of it is unread
	sum        hash.Hash
	next       frame.Frame
	err        error
}

// errBandsEnded is the read error once a frame other than FrameBand
// has arrived.
var errBandsEnded = errors.New("a frame other than FrameBand before the band stream's end")

// fill reads frames until one carries an unread byte.
func (b *bandReader) fill() error {
	for len(b.rest) == 0 && b.err == nil {
		f, err := frame.Read(b.r, b.maxPayload, reduceRules, b.buf)
		switch {
		case err != nil:
			b.err = err
		case f.Type != FrameBand:
			b.next, b.err = f, errBandsEnded
		default:
			if cap(f.Payload) > cap(b.buf) {
				b.buf = f.Payload
			}
			b.sum.Write(f.Payload)
			b.rest = f.Payload
		}
	}
	if len(b.rest) > 0 {
		return nil
	}
	return b.err
}

func (b *bandReader) Read(p []byte) (int, error) {
	if err := b.fill(); err != nil {
		return 0, err
	}
	n := copy(p, b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

func (b *bandReader) ReadByte() (byte, error) {
	if err := b.fill(); err != nil {
		return 0, err
	}
	c := b.rest[0]
	b.rest = b.rest[1:]
	return c, nil
}

// receiveBand reads what follows hello h on a reduction stream of an
// n-pixel grid: the FrameBands, decoded as they arrive into a band of
// h's span — worker 0's, the root of the reduction tree, into rows of a
// whole grid of its own — and the FrameResult that must follow the
// band stream's end at once. It returns the band (nil for an empty
// span, which adds nothing), the fingerprint of the stream received and
// the result.
func receiveBand(r io.Reader, h Hello, n, maxPayload int) (*grid.Band, Fingerprint, Result, error) {
	newBand := grid.NewBand
	if h.Worker == 0 {
		newBand = grid.NewGridBand
	}
	band := newBand(n, h.Lo, h.Hi)
	in := &bandReader{r: r, maxPayload: maxPayload, sum: sha256.New()}
	fp, err := band.ReadStream(in)
	if err != nil {
		return nil, Fingerprint{}, Result{}, err
	}
	if err := in.fill(); err == nil {
		return nil, Fingerprint{}, Result{}, fmt.Errorf("%d bytes after the band stream's end", len(in.rest))
	} else if err != errBandsEnded {
		return nil, Fingerprint{}, Result{}, fmt.Errorf("after the band stream's end: %w", err)
	}
	res, err := DecodeResult(in.next)
	if err != nil {
		return nil, Fingerprint{}, Result{}, err
	}
	in.sum.Sum(fp.SHA256[:0])
	if band.Lo == band.Hi {
		band = nil
	}
	return band, fp, res, nil
}

// Fingerprint is what partials are declared and verified with: the
// grid.Band fingerprint of the span, over the stream of the cells
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
