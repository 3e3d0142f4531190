package distrib

import (
	"bytes"
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

// TestBandRoundTrip streams a grid's nonzero span plane by plane,
// frame by frame, into a band of that span and requires bit-identity —
// the band fingerprint must survive the wire, the cells each frame
// decodes hash to it in stream order, and the band materialised as a
// grid is the source grid.
func TestBandRoundTrip(t *testing.T) {
	src := testGrid(24)
	lo, hi := grid.NonzeroRowSpan(src)
	if lo != 2 || hi != 23 {
		t.Fatalf("NonzeroRowSpan = [%d, %d), want [2, 23)", lo, hi)
	}
	dst := grid.NewBand(24, lo, hi)
	sum := grid.NewHasher(24, lo, hi)
	for c := 0; c < grid.NrCorrelations; c++ {
		for y := lo; y < hi; y += 5 {
			end := min(y+5, hi)
			ef, err := encodeBandInto(nil, src, c, y, end)
			if err != nil {
				t.Fatal(err)
			}
			f, err := frame.Read(bytes.NewReader(frameBytes(t, ef)), 0, reduceRules, nil)
			if err != nil {
				t.Fatal(err)
			}
			gc, glo, ghi, cells, err := DecodeBandInto(dst, f)
			if err != nil {
				t.Fatal(err)
			}
			if gc != c || glo != y || ghi != end || &cells[0] != &dst.Data[c][(y-lo)*24] {
				t.Fatalf("band decoded as plane %d [%d, %d), want plane %d [%d, %d) in place", gc, glo, ghi, c, y, end)
			}
			sum.Write(cells)
		}
	}
	want := src.Rows(lo, hi).Fingerprint()
	if dst.Fingerprint() != want || sum.Sum() != want {
		t.Fatal("band changed across the stream")
	}
	if FingerprintOf(dst.Grid()) != FingerprintOf(src) {
		t.Fatal("the received band materialises to another grid")
	}
}

// TestBandRejects covers the header cross-checks that run before any
// cell is written.
func TestBandRejects(t *testing.T) {
	src := testGrid(8)
	f, err := EncodeBand(src, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := DecodeBandInto(grid.NewBand(16, 0, 16), f); err == nil || !strings.Contains(err.Error(), "16-pixel") {
		t.Errorf("band for the wrong grid size accepted: %v", err)
	}
	if _, _, _, _, err := DecodeBandInto(grid.NewBand(8, 2, 8), f); err == nil || !strings.Contains(err.Error(), "outside the span [2, 8)") {
		t.Errorf("band leaving the receiving span accepted: %v", err)
	}
	if _, err := EncodeBand(src, 4, 4); err == nil {
		t.Error("EncodeBand accepted an empty row range")
	}
	if _, err := EncodeBand(src, -1, 4); err == nil {
		t.Error("EncodeBand accepted a negative lo")
	}
	if _, err := encodeBandInto(nil, src, grid.NrCorrelations, 1, 4); err == nil {
		t.Error("encodeBandInto accepted plane 4")
	}
	plane4 := frame.Frame{Type: FrameBand, Payload: append([]byte(nil), f.Payload...)}
	plane4.Payload[4] = grid.NrCorrelations
	if _, _, _, _, err := DecodeBandInto(grid.NewBand(8, 0, 8), plane4); err == nil || !strings.Contains(err.Error(), "plane 4") {
		t.Errorf("band of plane 4 accepted: %v", err)
	}
	// A band whose payload length disagrees with its row range must be
	// rejected by the decoder even though the frame layer accepted it
	// (the length is a valid k*cellBytes, just not this range's k).
	bad := frame.Frame{Type: FrameBand, Payload: f.Payload[:len(f.Payload)-16]}
	if _, _, _, _, err := DecodeBandInto(grid.NewBand(8, 0, 8), bad); err == nil {
		t.Error("DecodeBandInto accepted a short payload")
	}
}

// TestReduceFrameSizeChecks pins the validate-before-allocate
// contract: declared lengths that no reduction frame can have are
// rejected from the 10-byte header alone, before any payload is read
// or allocated — including a FrameBand length field claiming ~4 GiB.
func TestReduceFrameSizeChecks(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(b []byte)
		errPart string
	}{
		{"hello wrong length", func(b []byte) { b[6] = 12 }, "FrameHello payload"},
		{"band not whole cells", func(b []byte) { b[5] = FrameBand; b[6] = 13 }, "FrameBand payload"},
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
	// Huge declared band length: valid shape (header + k cells) but
	// over the cap; only the 10 header bytes exist, so an attempted
	// allocation of the declared 4 GiB would OOM or ReadFull would
	// error differently — the cap check must fire first.
	b := frameBytes(t, EncodeHello(Hello{Workers: 1}))[:10]
	b[5] = FrameBand
	b[6], b[7], b[8], b[9] = 0x10, 0x00, 0x00, 0xff // 0xff000010 = header + k*16
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
// (the band rule and cap check run on the declared length before the
// payload allocation), and any accepted frame must decode or be
// rejected cleanly by its typed decoder — bands into the span the last
// hello announced, in the order the coordinator demands, and a result
// closing that span.
func FuzzReadReduceFrame(f *testing.F) {
	g := testGrid(8)
	band, _ := EncodeBand(g, 2, 6)
	seeds := [][]byte{
		frameBytes(f, EncodeHello(Hello{Worker: 1, Workers: 4, Axis: AxisRows, Lo: 2, Hi: 6})),
		frameBytes(f, band),
		frameBytes(f, EncodeResult(Result{Worker: 2, Fingerprint: g.Rows(2, 6).Fingerprint()})),
	}
	// A two-frame stream, a truncated band and a corrupt-length band
	// round out the committed corpus shapes.
	seeds = append(seeds, append(append([]byte{}, seeds[0]...), seeds[2]...))
	seeds = append(seeds, seeds[1][:20])
	hugeband := append([]byte{}, seeds[1]...)
	hugeband[6], hugeband[7], hugeband[8], hugeband[9] = 0x10, 0x00, 0x00, 0xff
	seeds = append(seeds, hugeband)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The stream is read twice in step: into a fresh payload, and
		// into one reused buffer as the coordinator reads it. Both must see
		// the same frames and fail at the same one.
		r, again := bytes.NewReader(data), bytes.NewReader(data)
		in := newBandStream(Hello{Hi: 8}, 8)
		buf := make([]byte, 0, 16)
		for {
			fr, err := frame.Read(r, 1<<16, reduceRules, nil)
			into, errInto := frame.Read(again, 1<<16, reduceRules, buf)
			if (err == nil) != (errInto == nil) || fr.Type != into.Type || !bytes.Equal(fr.Payload, into.Payload) {
				t.Fatalf("reused buffer read frame %d (%v), fresh read frame %d (%v)", into.Type, errInto, fr.Type, err)
			}
			if cap(into.Payload) > cap(buf) {
				buf = into.Payload
			}
			if err != nil {
				if err == io.EOF && r.Len() != 0 {
					t.Fatal("clean EOF with bytes left on the stream")
				}
				return
			}
			switch fr.Type {
			case FrameHello:
				h, err := DecodeHello(fr)
				if err != nil {
					return
				}
				if h.Hi <= 8 {
					in = newBandStream(h, 8)
				}
			case FrameBand:
				if err := in.add(fr); err != nil {
					return
				}
			case FrameResult:
				if _, err := DecodeResult(fr); err != nil {
					return
				}
				if _, _, err := in.finish(); err != nil {
					return
				}
				in = newBandStream(Hello{Hi: 8}, 8) // the coordinator reads no further; the fuzzer does

			default:
				t.Fatalf("reader accepted unknown frame type %d", fr.Type)
			}
		}
	})
}
