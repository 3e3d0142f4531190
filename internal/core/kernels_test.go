package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

func testKernels(t *testing.T, gridSize, sgSize int) *Kernels {
	t.Helper()
	k, err := NewKernels(Params{
		GridSize:    gridSize,
		SubgridSize: sgSize,
		ImageSize:   0.1,
		Frequencies: []float64{150e6, 151e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestParamsValidation(t *testing.T) {
	freqs := []float64{150e6}
	bad := []Params{
		{GridSize: 1, SubgridSize: 8, ImageSize: 0.1, Frequencies: freqs},
		{GridSize: 64, SubgridSize: 7, ImageSize: 0.1, Frequencies: freqs}, // odd
		{GridSize: 64, SubgridSize: 128, ImageSize: 0.1, Frequencies: freqs},
		{GridSize: 64, SubgridSize: 8, ImageSize: 0, Frequencies: freqs},
		{GridSize: 64, SubgridSize: 8, ImageSize: 0.1},
		{GridSize: 64, SubgridSize: 8, ImageSize: 0.1, Frequencies: []float64{0}},
	}
	for i, p := range bad {
		if _, err := NewKernels(p); err == nil {
			t.Fatalf("params %d should be rejected", i)
		}
	}
}

func TestUVOffsetCenterSubgrid(t *testing.T) {
	k := testKernels(t, 256, 32)
	// A subgrid centered on the grid has zero uv offset.
	u, v := k.uvOffset(256/2-16, 256/2-16)
	if u != 0 || v != 0 {
		t.Fatalf("centered subgrid offset (%g, %g), want (0, 0)", u, v)
	}
	// One pixel to the right shifts by one uv cell = 1/ImageSize.
	u, _ = k.uvOffset(256/2-16+1, 256/2-16)
	if math.Abs(u-1/0.1) > 1e-12 {
		t.Fatalf("one-pixel offset = %g, want %g", u, 10.0)
	}
}

func TestAdderSplitterRoundtrip(t *testing.T) {
	k := testKernels(t, 64, 16)
	g := grid.NewGrid(64)
	rnd := newTestRand(1)
	s := grid.NewSubgrid(16, 10, 20)
	for c := range s.Data {
		for i := range s.Data[c] {
			s.Data[c][i] = complex(rnd(), rnd())
		}
	}
	orig := s.Clone()
	k.Adder([]*grid.Subgrid{s}, g)
	out := grid.NewSubgrid(16, 10, 20)
	k.Splitter(g, []*grid.Subgrid{out})
	if d := out.MaxAbsDiff(orig); d != 0 {
		t.Fatalf("adder/splitter roundtrip differs by %g", d)
	}
}

func TestAdderAccumulatesOverlaps(t *testing.T) {
	k := testKernels(t, 64, 16)
	g := grid.NewGrid(64)
	a := grid.NewSubgrid(16, 8, 8)
	b := grid.NewSubgrid(16, 16, 8) // overlaps a by 8 columns
	for i := range a.Data[0] {
		a.Data[0][i] = 1
		b.Data[0][i] = 2
	}
	k.Adder([]*grid.Subgrid{a, b}, g)
	if g.At(0, 8, 10) != 1 { // only a
		t.Fatalf("a-only pixel = %v", g.At(0, 8, 10))
	}
	if g.At(0, 8, 20) != 3 { // overlap
		t.Fatalf("overlap pixel = %v", g.At(0, 8, 20))
	}
	if g.At(0, 8, 28) != 2 { // only b
		t.Fatalf("b-only pixel = %v", g.At(0, 8, 28))
	}
}

func TestAdderVariantsAgree(t *testing.T) {
	k := testKernels(t, 64, 16)
	rnd := newTestRand(2)
	var subgrids []*grid.Subgrid
	for i := 0; i < 20; i++ {
		s := grid.NewSubgrid(16, int(40*(rnd()+1)/2), int(40*(rnd()+1)/2))
		for c := range s.Data {
			for j := range s.Data[c] {
				s.Data[c][j] = complex(rnd(), rnd())
			}
		}
		subgrids = append(subgrids, s)
	}
	g1 := grid.NewGrid(64)
	k.Adder(subgrids, g1)
	g2 := grid.NewGrid(64)
	k.AdderSerialLocked(subgrids, g2)
	if d := g1.MaxAbsDiff(g2); d > 1e-12 {
		t.Fatalf("adder variants differ by %g", d)
	}
}

// The adder and the splitter must reject an out-of-bounds subgrid on
// the calling goroutine — where the pipeline's panic isolation can
// recover it — whatever the worker count, not inside a fan-out worker.
func TestAdderSplitterPanicOnOutOfBounds(t *testing.T) {
	for _, workers := range []int{1, 4} {
		params := testKernels(t, 64, 16).Params()
		params.Workers = workers
		k, err := NewKernels(params)
		if err != nil {
			t.Fatal(err)
		}
		g := grid.NewGrid(64)
		// The second subgrid sticks out; the first keeps the fan-out
		// from degenerating to one worker.
		batch := []*grid.Subgrid{grid.NewSubgrid(16, 0, 0), grid.NewSubgrid(16, 60, 0)}
		for name, stage := range map[string]func(){
			"Adder":    func() { k.Adder(batch, g) },
			"Splitter": func() { k.Splitter(g, batch) },
		} {
			func() {
				defer func() {
					if r := recover(); r != "core: subgrid outside grid" {
						t.Fatalf("%s workers=%d: recovered %v, want the bounds panic", name, workers, r)
					}
				}()
				stage()
			}()
		}
	}
}

func TestFFTSubgridsRoundtrip(t *testing.T) {
	k := testKernels(t, 64, 16)
	rnd := newTestRand(3)
	var batch []*grid.Subgrid
	var orig []*grid.Subgrid
	for i := 0; i < 9; i++ {
		s := grid.NewSubgrid(16, 0, 0)
		for c := range s.Data {
			for j := range s.Data[c] {
				s.Data[c][j] = complex(rnd(), rnd())
			}
		}
		batch = append(batch, s)
		orig = append(orig, s.Clone())
	}
	k.FFTSubgrids(batch)
	k.InverseFFTSubgrids(batch)
	// Forward is scaled by 1/N~^2 and inverse by 1/N~^2 again, so the
	// roundtrip returns the original divided by N~^2 * N~^2 / N~^2 ...
	// concretely: forward = F/N~^2, inverse = F^-1 (with 1/N~^2 inside
	// fft.Inverse), so roundtrip = identity / N~^2.
	scale := complex(1.0/(16*16), 0)
	for i := range batch {
		want := orig[i]
		for c := range want.Data {
			for j := range want.Data[c] {
				want.Data[c][j] *= scale
			}
		}
		if d := batch[i].MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("subgrid %d roundtrip differs by %g", i, d)
		}
	}
}

func TestGridSubgridImpulseLandsAtOffset(t *testing.T) {
	// A single visibility of value 1 with uvw exactly on the subgrid's
	// uv offset must produce, after the gridder, a constant-phase
	// (real) image-domain subgrid: all phases cancel.
	k := testKernels(t, 256, 32)
	item := plan.WorkItem{
		Baseline: 0, TimeStart: 0, NrTimesteps: 1,
		Channel0: 0, NrChannels: 1,
		X0: 140, Y0: 100,
	}
	uOff, vOff := k.uvOffset(item.X0, item.Y0)
	// uvw in meters such that u_lambda = uOff at channel 0.
	lambda := 299792458.0 / 150e6
	uvw := []uvwsim.UVW{{U: uOff * lambda, V: vOff * lambda, W: 0}}
	vis := []xmath.Matrix2{{1, 0, 0, 1}}
	out := grid.NewSubgrid(32, 0, 0)
	k.GridSubgrid(item, uvw, vis, nil, nil, out)
	// Every pixel must equal its taper value (real, positive inside).
	for i := range out.Data[0] {
		want := complex(k.taper[i], 0)
		if d := cAbs(out.Data[0][i] - want); d > 1e-9 {
			t.Fatalf("pixel %d = %v, want %v", i, out.Data[0][i], want)
		}
		if out.Data[1][i] != 0 || out.Data[2][i] != 0 {
			t.Fatal("cross terms must stay zero")
		}
	}
}

func TestGridDegridSingleItemRoundtrip(t *testing.T) {
	// Degridding the FFT of a gridded single visibility reproduces the
	// visibility up to the taper-squared weighting... instead test the
	// adjoint at subgrid level: <Grid(v), s> == <v, Degrid(s)> for one
	// work item without the FFT stage.
	k := testKernels(t, 256, 32)
	item := plan.WorkItem{
		Baseline: 0, TimeStart: 0, NrTimesteps: 3,
		Channel0: 0, NrChannels: 2,
		X0: 120, Y0: 130,
	}
	rnd := newTestRand(4)
	uvw := make([]uvwsim.UVW, 3)
	for t2 := range uvw {
		uvw[t2] = uvwsim.UVW{U: 20 * rnd(), V: 20 * rnd(), W: 2 * rnd()}
	}
	vis := make([]xmath.Matrix2, 6)
	for i := range vis {
		for p := 0; p < 4; p++ {
			vis[i][p] = complex(rnd(), rnd())
		}
	}
	s := grid.NewSubgrid(32, item.X0, item.Y0)
	for c := range s.Data {
		for i := range s.Data[c] {
			s.Data[c][i] = complex(rnd(), rnd())
		}
	}

	gv := grid.NewSubgrid(32, item.X0, item.Y0)
	k.GridSubgrid(item, uvw, vis, nil, nil, gv)
	var lhs complex128
	for c := range gv.Data {
		for i := range gv.Data[c] {
			lhs += gv.Data[c][i] * conj(s.Data[c][i])
		}
	}

	dv := make([]xmath.Matrix2, 6)
	k.DegridSubgrid(item, s, uvw, nil, nil, dv)
	var rhs complex128
	for i := range vis {
		for p := 0; p < 4; p++ {
			rhs += vis[i][p] * conj(dv[i][p])
		}
	}
	if d := cAbs(lhs-rhs) / cAbs(lhs); d > 1e-9 {
		t.Fatalf("kernel-level adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestTaperCorrectionBlanksEdges(t *testing.T) {
	k := testKernels(t, 64, 16)
	corr := k.TaperCorrection(64)
	center := corr[32*64+32]
	if center <= 0 {
		t.Fatal("center correction must be positive")
	}
	if corr[0] != 0 {
		t.Fatal("corner must be blanked")
	}
}

func TestApplyWScreenRoundtrip(t *testing.T) {
	img := grid.NewGrid(32)
	rnd := newTestRand(5)
	for c := range img.Data {
		for i := range img.Data[c] {
			img.Data[c][i] = complex(rnd(), rnd())
		}
	}
	orig := img.Clone()
	ApplyWScreen(img, 0.2, 123.0, +1)
	if img.MaxAbsDiff(orig) < 1e-9 {
		t.Fatal("w screen had no effect")
	}
	ApplyWScreen(img, 0.2, 123.0, -1)
	if d := img.MaxAbsDiff(orig); d > 1e-9 {
		t.Fatalf("w screen roundtrip differs by %g", d)
	}
}

func TestGridImageRoundtrip(t *testing.T) {
	img := grid.NewGrid(32)
	rnd := newTestRand(6)
	for c := range img.Data {
		for i := range img.Data[c] {
			img.Data[c][i] = complex(rnd(), rnd())
		}
	}
	orig := img.Clone()
	g := ImageToGrid(img, 2)
	back := GridToImage(g, 2)
	if d := back.MaxAbsDiff(orig); d > 1e-9 {
		t.Fatalf("image->grid->image roundtrip differs by %g", d)
	}
	// fft package consistency: ImageToGrid equals ForwardCentered.
	ref := orig.Clone()
	p := fft.NewPlan2D(32, 32)
	for c := range ref.Data {
		p.ForwardCentered(ref.Data[c])
	}
	if d := ref.MaxAbsDiff(g); d > 1e-9 {
		t.Fatalf("ImageToGrid mismatch %g", d)
	}
}

// TestChannelSpecializationsMatchReference verifies the gridder against
// the direct Algorithm 1 transcription for every channel count 1..17 —
// a base row per channel, whole and partial pixel groups on either side
// of every register width. The phasor recurrence is disabled on the
// batched kernel so both paths evaluate identical sincos arguments and
// the comparison isolates the accumulation order (tolerance 1e-12).
func TestChannelSpecializationsMatchReference(t *testing.T) {
	for nc := 1; nc <= 17; nc++ {
		t.Run(fmt.Sprintf("nc=%d", nc), func(t *testing.T) {
			freqs := make([]float64, nc)
			for i := range freqs {
				freqs[i] = 150e6 + float64(i)*250e3
			}
			params := Params{
				GridSize: 256, SubgridSize: 16, ImageSize: 0.1, Frequencies: freqs,
				DisablePhasorRecurrence: true,
			}
			batched, err := NewKernels(params)
			if err != nil {
				t.Fatal(err)
			}
			params.DisableBatching = true
			ref, err := NewKernels(params)
			if err != nil {
				t.Fatal(err)
			}

			const nt = 9
			item := plan.WorkItem{NrTimesteps: nt, NrChannels: nc, X0: 100, Y0: 90}
			rnd := newTestRand(uint64(nc) + 100)
			uvw := make([]uvwsim.UVW, nt)
			for i := range uvw {
				uvw[i] = uvwsim.UVW{U: 30 * rnd(), V: 30 * rnd(), W: 3 * rnd()}
			}
			vis := make([]xmath.Matrix2, nt*nc)
			for i := range vis {
				for p := 0; p < 4; p++ {
					vis[i][p] = complex(rnd(), rnd())
				}
			}
			a := grid.NewSubgrid(16, item.X0, item.Y0)
			b := grid.NewSubgrid(16, item.X0, item.Y0)
			batched.GridSubgrid(item, uvw, vis, nil, nil, a)
			ref.GridSubgrid(item, uvw, vis, nil, nil, b)
			if d := a.MaxAbsDiff(b); d > 1e-12 {
				t.Fatalf("gridder differs from reference by %g", d)
			}
		})
	}
}
