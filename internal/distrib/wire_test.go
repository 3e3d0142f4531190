package distrib

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/grid"
)

// frameBytes encodes one frame to raw wire bytes.
func frameBytes(t testing.TB, f frame.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testGrid fills a small grid with a deterministic non-trivial
// pattern (every plane different, some zero rows top and bottom).
func testGrid(n int) *grid.Grid {
	g := grid.NewGrid(n)
	for c := 0; c < grid.NrCorrelations; c++ {
		for y := 2; y < n-1; y++ {
			for x := 0; x < n; x++ {
				g.Set(c, y, x, complex(float64(c*n*n+y*n+x), -float64(x+1)))
			}
		}
	}
	return g
}

// TestHelloRoundTrip round-trips the stream-opening frame.
func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Worker: 3, Workers: 8, Axis: AxisWPlanes, Lo: 17, Hi: 1000}
	for i := range h.PlanSum {
		h.PlanSum[i] = byte(i * 7)
	}
	f, err := frame.Read(bytes.NewReader(frameBytes(t, EncodeHello(h))), 0, reduceRules, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round-trip: got %+v, want %+v", got, h)
	}
	h.Lo, h.Hi = 9, 8
	if _, err := DecodeHello(EncodeHello(h)); err == nil || !strings.Contains(err.Error(), "row span [9, 8)") {
		t.Errorf("inverted row span accepted: %v", err)
	}
}

// TestResultRoundTrip round-trips the closing fingerprint frame.
func TestResultRoundTrip(t *testing.T) {
	r := Result{Worker: 5, Fingerprint: FingerprintOf(testGrid(16))}
	f, err := frame.Read(bytes.NewReader(frameBytes(t, EncodeResult(r))), 0, reduceRules, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("result round-trip: got %+v, want %+v", got, r)
	}
}

// wire is a reduction stream after hello h: the band stream cut into
// FrameBands of the given payloads, then the result r.
func wire(t testing.TB, h Hello, payloads [][]byte, r Result) []byte {
	t.Helper()
	b := frameBytes(t, EncodeHello(h))
	for _, p := range payloads {
		b = append(b, frameBytes(t, frame.Frame{Type: FrameBand, Payload: p})...)
	}
	return append(b, frameBytes(t, EncodeResult(r))...)
}

// bandStream is the grid stream of rows [lo, hi) of g.
func bandStream(g *grid.Grid, lo, hi int) []byte {
	var b bytes.Buffer
	g.Rows(lo, hi).WriteStream(&b, 0)
	return b.Bytes()
}

// cut splits a stream into pieces of size bytes, the last shorter.
func cut(stream []byte, size int) [][]byte {
	var pieces [][]byte
	for len(stream) > size {
		pieces, stream = append(pieces, stream[:size]), stream[size:]
	}
	return append(pieces, stream)
}

// TestBandRoundTrip streams a grid's nonzero span as a worker sends it
// under caps from MinPayload up, and cut at every byte and every
// seventh byte, into a band of that span, and requires bit-identity:
// the band fingerprint survives the wire, the hash of the bytes
// received and the cells decoded is the sender's, and the band
// materialised as a grid is the source grid.
func TestBandRoundTrip(t *testing.T) {
	src := testGrid(24)
	lo, hi := grid.NonzeroRowSpan(src)
	if lo != 2 || hi != 23 {
		t.Fatalf("NonzeroRowSpan = [%d, %d), want [2, 23)", lo, hi)
	}
	want := src.Rows(lo, hi).Fingerprint()
	h := Hello{Worker: 1, Workers: 2, Lo: lo, Hi: hi}
	streams := map[string][]byte{}
	for _, maxPayload := range []int{MinPayload, 1000, 0} {
		var b bytes.Buffer
		bw := bufio.NewWriter(&b)
		fp, err := sendBands(bw, h, src, maxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Fatalf("cap %d: sent fingerprint %+v, want %+v", maxPayload, fp, want)
		}
		frame.Write(bw, EncodeResult(Result{Worker: 1, Fingerprint: fp}))
		bw.Flush()
		streams[fmt.Sprintf("cap %d", maxPayload)] = b.Bytes()
	}
	for _, size := range []int{1, 7} {
		streams[fmt.Sprintf("%d-byte pieces", size)] = wire(t, h, cut(bandStream(src, lo, hi), size), Result{Worker: 1, Fingerprint: want})
	}
	for name, stream := range streams {
		r := bytes.NewReader(stream)
		if _, err := frame.Read(r, MinPayload, reduceRules, nil); err != nil {
			t.Fatal(err)
		}
		band, got, res, err := receiveBand(r, h, 24, MinPayload*1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want || res.Fingerprint != want || r.Len() != 0 {
			t.Fatalf("%s: received %+v declared %+v, want %+v (%d bytes unread)", name, got, res.Fingerprint, want, r.Len())
		}
		if FingerprintOf(band.Grid()) != FingerprintOf(src) {
			t.Fatalf("%s: the received band materialises to another grid", name)
		}
	}
}

// TestBandRejects covers EncodeBand's row checks and the band stream
// header, which must name the grid size and the span the hello
// announced before any cell is written.
func TestBandRejects(t *testing.T) {
	src := testGrid(8)
	f, err := EncodeBand(src, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, bandStream(src, 1, 4)) {
		t.Error("EncodeBand's payload is not the band's stream")
	}
	for _, tc := range []struct {
		n      int
		lo, hi int
	}{{16, 1, 4}, {8, 2, 4}, {8, 1, 5}} {
		r := bytes.NewReader(frameBytes(t, f))
		_, _, _, err := receiveBand(r, Hello{Worker: 1, Lo: tc.lo, Hi: tc.hi}, tc.n, 0)
		if err == nil || !strings.Contains(err.Error(), "header for rows [1, 4) of a 8-pixel grid") {
			t.Errorf("rows [1, 4) of 8 received as [%d, %d) of %d: %v", tc.lo, tc.hi, tc.n, err)
		}
	}
	if _, err := EncodeBand(src, 4, 4); err == nil {
		t.Error("EncodeBand accepted an empty row range")
	}
	if _, err := EncodeBand(src, -1, 4); err == nil {
		t.Error("EncodeBand accepted a negative lo")
	}
	if _, err := EncodeBand(src, 1, 9); err == nil {
		t.Error("EncodeBand accepted rows past the grid")
	}
}

// TestReduceFrameSizeChecks pins the validate-before-allocate
// contract: declared lengths that no reduction frame can have, or that
// exceed the cap — a FrameBand length field claiming ~4 GiB — are
// rejected from the 10-byte header alone, before any payload is read
// or allocated.
func TestReduceFrameSizeChecks(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(b []byte)
		errPart string
	}{
		{"hello wrong length", func(b []byte) { b[6] = 12 }, "FrameHello payload"},
		{"result wrong length", func(b []byte) { b[5] = FrameResult; b[6] = 1 }, "FrameResult payload"},
		{"unknown type", func(b []byte) { b[5] = 99 }, "unknown frame type"},
		{"session type on reduce stream", func(b []byte) { b[5] = 1; b[6] = 44 }, "unknown frame type"}, // server.FrameVis
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := frameBytes(t, EncodeHello(Hello{Workers: 1}))
			c.mutate(b)
			_, err := frame.Read(bytes.NewReader(b[:10]), 0, reduceRules, nil)
			if err == nil || !strings.Contains(err.Error(), c.errPart) {
				t.Fatalf("got %v, want error containing %q (from the header alone)", err, c.errPart)
			}
		})
	}
	// Huge declared band length over the cap; only the 10 header bytes
	// exist, so an attempted allocation of the declared 4 GiB would OOM
	// or ReadFull would error differently — the cap check must fire
	// first.
	b := frameBytes(t, EncodeHello(Hello{Workers: 1}))[:10]
	b[5] = FrameBand
	b[6], b[7], b[8], b[9] = 0x10, 0x00, 0x00, 0xff // 0xff000010 bytes
	if _, err := frame.Read(bytes.NewReader(b), 1<<20, reduceRules, nil); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("4 GiB declared band length not stopped by the cap: %v", err)
	}
}

// TestFingerprintDistinguishes sanity-checks the internal fingerprint:
// equal grids compare equal, a one-ulp change does not.
func TestFingerprintDistinguishes(t *testing.T) {
	a, b := testGrid(12), testGrid(12)
	if FingerprintOf(a) != FingerprintOf(b) {
		t.Fatal("identical grids fingerprint differently")
	}
	b.Add(2, 5, 5, complex(0, 1e-9)) // above the cell's ulp, invisible to a tolerance check
	if FingerprintOf(a) == FingerprintOf(b) {
		t.Fatal("perturbed grid fingerprints identically")
	}
}

// FuzzReadReduceFrame fuzzes the reduction-stream reader with a small
// payload cap: it must never panic, never allocate more than the cap
// (the cap check runs on the declared length before the payload
// allocation), and any accepted frame must decode or be rejected
// cleanly: a hello's band stream is received into the span it
// announced, and a stream received whole re-encodes to the bytes that
// arrived.
func FuzzReadReduceFrame(f *testing.F) {
	g := testGrid(8)
	band, _ := EncodeBand(g, 2, 6)
	h := Hello{Worker: 1, Workers: 4, Axis: AxisRows, Lo: 2, Hi: 6}
	seeds := [][]byte{
		frameBytes(f, EncodeHello(h)),
		frameBytes(f, band),
		frameBytes(f, EncodeResult(Result{Worker: 2, Fingerprint: g.Rows(2, 6).Fingerprint()})),
		wire(f, h, cut(band.Payload, 40), Result{Worker: 1, Fingerprint: g.Rows(2, 6).Fingerprint()}),
	}
	// A truncated band and a corrupt-length band round out the
	// committed corpus shapes.
	seeds = append(seeds, seeds[1][:20])
	hugeband := append([]byte{}, seeds[1]...)
	hugeband[6], hugeband[7], hugeband[8], hugeband[9] = 0x10, 0x00, 0x00, 0xff
	seeds = append(seeds, hugeband)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := frame.Read(r, 1<<16, reduceRules, nil)
			if err != nil {
				if err == io.EOF && r.Len() != 0 {
					t.Fatal("clean EOF with bytes left on the stream")
				}
				return
			}
			switch fr.Type {
			case FrameHello:
				h, err := DecodeHello(fr)
				if err != nil || h.Hi > 8 {
					return
				}
				b, fp, _, err := receiveBand(r, h, 8, 1<<16)
				if err != nil {
					return
				}
				want := grid.NewBand(8, h.Lo, h.Hi).Fingerprint()
				if b != nil {
					want = b.Fingerprint()
				}
				if fp.SHA256 != want.SHA256 || fp.Nonzero != want.Nonzero {
					t.Fatal("a band stream received whole re-encodes to other bytes")
				}
			case FrameBand:
				// Bands with no hello before them: the coordinator reads none.
			case FrameResult:
				if _, err := DecodeResult(fr); err != nil {
					t.Fatalf("accepted result frame does not decode: %v", err)
				}
			default:
				t.Fatalf("reader accepted unknown frame type %d", fr.Type)
			}
		}
	})
}
