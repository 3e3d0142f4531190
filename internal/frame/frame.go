// Package frame is the wire frame shared by every byte stream of the
// repository: the visibility session stream of internal/server and the
// partial-grid reduction stream of internal/distrib. A stream is a run
// of self-delimiting frames, each
//
//	magic "IDGF" | version 1 byte | type 1 byte | payload len uint32 LE
//	payload (len bytes)
//	CRC-64/ECMA over header+payload, uint64 LE (crc.go)
//
// Protocols built on it register their frame types as a Rules table.
// The payload length is validated against the frame type's rule and
// the configured cap before any allocation, mirroring the checkpoint
// and dataio readers: a corrupt or hostile length field is rejected
// with a descriptive error instead of an attempted huge allocation.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
)

const (
	magic   = "IDGF"
	version = 1
	// HeaderSize is magic + version + type + payload length.
	HeaderSize = len(magic) + 1 + 1 + 4
	// DefaultMaxPayload caps a frame payload when the reader is given
	// no cap (4 MiB = ~128k visibility samples per frame).
	DefaultMaxPayload = 4 << 20
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    byte
	Payload []byte
}

// Rule validates the declared payload length of one frame type before
// any allocation happens.
type Rule func(payloadLen int64) error

// Rules is a protocol's frame-type table; a frame whose type has no
// rule is rejected as unknown.
type Rules map[byte]Rule

// Write encodes one frame.
func Write(w io.Writer, f Frame) error {
	var hdr [HeaderSize]byte
	copy(hdr[:], magic)
	hdr[4] = version
	hdr[5] = f.Type
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(f.Payload)))
	crc := crcUpdate(crcUpdate(0, hdr[:]), f.Payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(f.Payload); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc)
	_, err := w.Write(sum[:])
	return err
}

// Read decodes one frame whose type must appear in rules; the matching
// rule validates the declared payload length, and the cap (<= 0
// selects DefaultMaxPayload) is enforced, before the payload is read.
// The payload goes into buf's storage, which may be nil and is replaced
// by a larger allocation only once the length has passed both checks;
// the returned Payload aliases it, so a caller reusing buf across
// frames must be done with one frame before it reads the next.
//
// io.EOF is returned unwrapped only when the stream ends cleanly
// between frames, so callers can treat it as end-of-stream; a frame cut
// off mid-way is io.ErrUnexpectedEOF.
func Read(r io.Reader, maxPayload int, rules Rules, buf []byte) (Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err // io.EOF: clean end of stream
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Frame{}, fmt.Errorf("frame: reading frame header: %w", unexpected(err))
	}
	if string(hdr[:4]) != magic {
		return Frame{}, fmt.Errorf("frame: bad frame magic %q", hdr[:4])
	}
	if hdr[4] != version {
		return Frame{}, fmt.Errorf("frame: unsupported frame version %d", hdr[4])
	}
	f := Frame{Type: hdr[5]}
	n := int64(binary.LittleEndian.Uint32(hdr[6:]))
	rule, ok := rules[f.Type]
	if !ok {
		return Frame{}, fmt.Errorf("frame: unknown frame type %d", f.Type)
	}
	if err := rule(n); err != nil {
		return Frame{}, err
	}
	if n > int64(maxPayload) {
		return Frame{}, fmt.Errorf("frame: frame payload of %d bytes exceeds the %d-byte cap", n, maxPayload)
	}
	crc := crcUpdate(0, hdr[:])
	if n > 0 {
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		f.Payload = buf[:n]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("frame: reading %d-byte frame payload: %w", n, unexpected(err))
		}
		crc = crcUpdate(crc, f.Payload)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return Frame{}, fmt.Errorf("frame: reading frame checksum: %w", unexpected(err))
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != crc {
		return Frame{}, fmt.Errorf("frame: frame checksum mismatch: wire %016x, computed %016x", got, crc)
	}
	return f, nil
}

// unexpected turns an EOF inside a frame into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
