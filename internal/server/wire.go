// Package server is the gridding-as-a-service layer: a long-running
// multi-tenant HTTP server in which clients open observation sessions,
// stream visibility chunks as internal/frame frames, and fetch the
// finished grid. It composes the existing layers behind a network
// boundary — the streamed scheduler bounds per-session memory
// (MaxInflightChunks), checkpoints make drained sessions resumable,
// and the observability layer meters every session stage — without
// importing the facade: the gridding itself is injected through the
// Backend interface, which the root package implements on Observation.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/frame"
)

// The session stream is a run of internal/frame frames of two types.
const (
	// FrameVis carries visibility samples for one baseline range:
	// payload = baseline uint32 | sample offset uint32 | sample count
	// uint32 | count samples of 8 float32 (re, im of the four
	// correlations in Matrix2 order).
	FrameVis byte = 1
	// FrameDone marks the end of a visibility stream; its payload is
	// empty. A stream may also end at EOF without one.
	FrameDone byte = 2
)

const (
	// visPayloadHeader is the fixed prefix of a FrameVis payload.
	visPayloadHeader = 12
	// VisSampleBytes is the wire size of one visibility sample
	// (4 correlations x 2 float32 components).
	VisSampleBytes = 32
	// MinFramePayloadCap is the smallest useful payload cap: one
	// visibility sample plus the FrameVis prefix.
	MinFramePayloadCap = visPayloadHeader + VisSampleBytes
)

// Frame and WriteFrame stay only because the benchmark module spells
// them; this package reads and writes through internal/frame.
type Frame = frame.Frame

// WriteFrame is frame.Write.
func WriteFrame(w io.Writer, f Frame) error { return frame.Write(w, f) }

// sessionRules is the frame-type table of the visibility session
// stream.
var sessionRules = frame.Rules{
	FrameVis: func(n int64) error {
		if n < visPayloadHeader || (n-visPayloadHeader)%VisSampleBytes != 0 {
			return fmt.Errorf("server: FrameVis payload of %d bytes is not %d + k*%d", n, visPayloadHeader, VisSampleBytes)
		}
		return nil
	},
	FrameDone: func(n int64) error {
		if n != 0 {
			return fmt.Errorf("server: FrameDone with %d payload bytes", n)
		}
		return nil
	},
}

// VisChunk is a decoded FrameVis: a run of samples of one baseline,
// starting at SampleOffset in the baseline's t*nrChannels+c sample
// order. Samples holds 8 float32 per visibility: re, im of each of the
// four correlations in Matrix2 order.
type VisChunk struct {
	Baseline     int
	SampleOffset int
	Samples      []float32
}

// EncodeVis builds a FrameVis for one run of samples; len(samples)
// must be a multiple of 8 (one visibility = 8 float32).
func EncodeVis(baseline, sampleOffset int, samples []float32) (frame.Frame, error) {
	if len(samples)%8 != 0 {
		return frame.Frame{}, fmt.Errorf("server: %d floats is not a whole number of visibilities", len(samples))
	}
	if baseline < 0 || sampleOffset < 0 {
		return frame.Frame{}, fmt.Errorf("server: negative baseline %d or offset %d", baseline, sampleOffset)
	}
	count := len(samples) / 8
	p := make([]byte, visPayloadHeader+count*VisSampleBytes)
	binary.LittleEndian.PutUint32(p[0:], uint32(baseline))
	binary.LittleEndian.PutUint32(p[4:], uint32(sampleOffset))
	binary.LittleEndian.PutUint32(p[8:], uint32(count))
	for i, s := range samples {
		binary.LittleEndian.PutUint32(p[visPayloadHeader+4*i:], math.Float32bits(s))
	}
	return frame.Frame{Type: FrameVis, Payload: p}, nil
}

// DecodeVis decodes a FrameVis payload, cross-checking the embedded
// sample count against the payload length.
func DecodeVis(f frame.Frame) (VisChunk, error) {
	if f.Type != FrameVis {
		return VisChunk{}, fmt.Errorf("server: decoding frame type %d as FrameVis", f.Type)
	}
	if len(f.Payload) < visPayloadHeader {
		return VisChunk{}, fmt.Errorf("server: FrameVis payload of %d bytes is shorter than its %d-byte prefix", len(f.Payload), visPayloadHeader)
	}
	c := VisChunk{
		Baseline:     int(binary.LittleEndian.Uint32(f.Payload[0:])),
		SampleOffset: int(binary.LittleEndian.Uint32(f.Payload[4:])),
	}
	count := int(binary.LittleEndian.Uint32(f.Payload[8:]))
	if got := (len(f.Payload) - visPayloadHeader) / VisSampleBytes; count != got || (len(f.Payload)-visPayloadHeader)%VisSampleBytes != 0 {
		return VisChunk{}, fmt.Errorf("server: FrameVis declares %d samples but carries %d bytes of data", count, len(f.Payload)-visPayloadHeader)
	}
	c.Samples = make([]float32, count*8)
	for i := range c.Samples {
		c.Samples[i] = math.Float32frombits(binary.LittleEndian.Uint32(f.Payload[visPayloadHeader+4*i:]))
	}
	return c, nil
}
