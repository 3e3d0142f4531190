package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"repro/internal/frame"
)

// TestFrameRoundTrip: frames survive encode -> decode bit-exactly,
// singly and as a stream.
func TestFrameRoundTrip(t *testing.T) {
	samples := make([]float32, 8*5)
	for i := range samples {
		samples[i] = float32(i) * 0.25
	}
	f, err := EncodeVis(3, 16, samples)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := frame.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if err := frame.Write(&buf, frame.Frame{Type: FrameDone}); err != nil {
		t.Fatal(err)
	}

	got, err := frame.Read(&buf, 0, sessionRules, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeVis(got)
	if err != nil {
		t.Fatal(err)
	}
	if c.Baseline != 3 || c.SampleOffset != 16 || len(c.Samples) != len(samples) {
		t.Fatalf("decoded chunk %d/%d/%d floats", c.Baseline, c.SampleOffset, len(c.Samples))
	}
	for i := range samples {
		if c.Samples[i] != samples[i] {
			t.Fatalf("sample %d: %g != %g", i, c.Samples[i], samples[i])
		}
	}
	done, err := frame.Read(&buf, 0, sessionRules, nil)
	if err != nil || done.Type != FrameDone {
		t.Fatalf("second frame: type %d, err %v", done.Type, err)
	}
	if _, err := frame.Read(&buf, 0, sessionRules, nil); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// TestReadFrameRejections: every corruption class fails with a
// descriptive error, and oversized lengths are rejected before any
// allocation could happen.
func TestReadFrameRejections(t *testing.T) {
	valid := func() []byte {
		f, _ := EncodeVis(0, 0, make([]float32, 8))
		var buf bytes.Buffer
		frame.Write(&buf, f)
		return buf.Bytes()
	}()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", append([]byte("NOPE"), valid[4:]...), "bad frame magic"},
		{"bad version", append(append([]byte("IDGF"), 9), valid[5:]...), "unsupported frame version"},
		{"unknown type", append(append([]byte(nil), valid[:5]...), append([]byte{99}, valid[6:]...)...), "unknown frame type"},
		{"truncated header", valid[:6], "reading frame header"},
		{"truncated payload", valid[:frame.HeaderSize+10], "reading 44-byte frame payload"},
		{"truncated checksum", valid[:len(valid)-4], "reading frame checksum"},
		{"ragged vis length", func() []byte {
			d := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(d[6:], 13) // not 12 + k*32
			return d
		}(), "not 12 + k*32"},
		{"done with payload", func() []byte {
			var buf bytes.Buffer
			// The writer does not check rules; the reader must.
			frame.Write(&buf, frame.Frame{Type: FrameDone, Payload: []byte{1, 2, 3, 4}})
			return buf.Bytes()
		}(), "FrameDone with 4 payload bytes"},
		{"flipped payload bit", func() []byte {
			d := append([]byte(nil), valid...)
			d[frame.HeaderSize] ^= 0x80
			return d
		}(), "checksum mismatch"},
		{"flipped checksum bit", func() []byte {
			d := append([]byte(nil), valid...)
			d[len(d)-1] ^= 0x01
			return d
		}(), "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := frame.Read(bytes.NewReader(tc.data), 0, sessionRules, nil)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadFrameCapBeforeAllocation: a frame whose declared length
// exceeds the cap is rejected from the 10-byte header alone — the
// reader must not try to read (or allocate) the payload. The
// truncated body proves it: a reader that allocated-and-read would
// fail with an unexpected EOF instead of the cap error.
func TestReadFrameCapBeforeAllocation(t *testing.T) {
	var buf bytes.Buffer
	frame.Write(&buf, frame.Frame{Type: FrameVis})
	hdr := buf.Bytes()[:frame.HeaderSize]
	binary.LittleEndian.PutUint32(hdr[6:], uint32(visPayloadHeader+1000*VisSampleBytes))
	_, err := frame.Read(bytes.NewReader(hdr), MinFramePayloadCap, sessionRules, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: %v, want a cap rejection", err)
	}
}

// TestEncodeVisRejections: the encoder refuses malformed chunks
// rather than producing frames the reader would bounce.
func TestEncodeVisRejections(t *testing.T) {
	if _, err := EncodeVis(0, 0, make([]float32, 7)); err == nil {
		t.Fatal("ragged sample count accepted")
	}
	if _, err := EncodeVis(-1, 0, make([]float32, 8)); err == nil {
		t.Fatal("negative baseline accepted")
	}
	if _, err := EncodeVis(0, -1, make([]float32, 8)); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// FuzzReadFrame throws arbitrary bytes at the frame decoder. The
// contract mirrors FuzzReadCheckpoint: never panic, never allocate
// from an unvalidated length (the cap check precedes the payload
// allocation), and anything accepted must decode to a
// structurally-sane frame.
func FuzzReadFrame(f *testing.F) {
	// Seed with genuine frames plus systematic mutations, so the
	// fuzzer starts from deep coverage of the happy path.
	seed := func(fr frame.Frame) []byte {
		var buf bytes.Buffer
		frame.Write(&buf, fr)
		return buf.Bytes()
	}
	vis, _ := EncodeVis(2, 4, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	valid := seed(vis)
	f.Add(valid)
	f.Add(seed(frame.Frame{Type: FrameDone}))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:frame.HeaderSize])
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
	big := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(big[6:], 1<<31-1)
	f.Add(big)
	f.Add([]byte("IDGF"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := frame.Read(bytes.NewReader(data), frame.DefaultMaxPayload, sessionRules, nil)
		if err != nil {
			return
		}
		switch fr.Type {
		case FrameVis:
			c, err := DecodeVis(fr)
			if err != nil {
				return
			}
			if c.Baseline < 0 || c.SampleOffset < 0 || len(c.Samples)%8 != 0 {
				t.Fatalf("accepted implausible chunk %d/%d/%d", c.Baseline, c.SampleOffset, len(c.Samples))
			}
		case FrameDone:
			if len(fr.Payload) != 0 {
				t.Fatalf("accepted FrameDone with %d payload bytes", len(fr.Payload))
			}
		default:
			t.Fatalf("accepted unknown frame type %d", fr.Type)
		}
	})
}
