package frame

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

var testRules = Rules{
	7: func(n int64) error {
		if n%2 != 0 {
			return errors.New("odd payload")
		}
		return nil
	},
}

// TestReadReusesBuffer: a stream of frames reads back bit-exactly into
// a fresh payload and into one reused buffer alike, and ends in a clean
// io.EOF between frames.
func TestReadReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	payloads := [][]byte{{1, 2}, nil, {3, 4, 5, 6, 7, 8}}
	for _, p := range payloads {
		if err := Write(&stream, Frame{Type: 7, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	fresh, reused := bytes.NewReader(stream.Bytes()), bytes.NewReader(stream.Bytes())
	buf := make([]byte, 0, 4)
	for i, want := range payloads {
		a, err := Read(fresh, 0, testRules, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Read(reused, 0, testRules, buf)
		if err != nil {
			t.Fatal(err)
		}
		if a.Type != 7 || !bytes.Equal(a.Payload, want) || !bytes.Equal(b.Payload, want) {
			t.Fatalf("frame %d: got %v and %v, want %v", i, a.Payload, b.Payload, want)
		}
		if n := len(want); n > 0 && n <= cap(buf) && &b.Payload[0] != &buf[:n][0] {
			t.Fatalf("frame %d: a payload that fits was not read into the caller's buffer", i)
		}
	}
	if _, err := Read(fresh, 0, testRules, nil); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// TestReadChecksLengthBeforePayload: the rule and the cap reject a
// declared length from the header alone.
func TestReadChecksLengthBeforePayload(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, Frame{Type: 7, Payload: make([]byte, 64)})
	hdr := buf.Bytes()[:HeaderSize]
	for _, tc := range []struct {
		rules Rules
		cap   int
		want  string
	}{
		{testRules, 32, "exceeds the 32-byte cap"},
		{Rules{}, 0, "unknown frame type 7"},
		{Rules{7: func(int64) error { return errors.New("rule says no") }}, 0, "rule says no"},
	} {
		if _, err := Read(bytes.NewReader(hdr), tc.cap, tc.rules, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got %v, want an error containing %q", err, tc.want)
		}
	}
}
