package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/plan"
	"repro/internal/uvwsim"
	"repro/internal/xmath"
)

// tilingKernels builds kernels over a uniform channel comb with the
// given subgrid size; mod tweaks the tiling/precision knobs.
func tilingKernels(t testing.TB, sg, nc int, mod func(*Params)) *Kernels {
	t.Helper()
	freqs := make([]float64, nc)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*250e3
	}
	params := Params{
		GridSize: 256, SubgridSize: sg, ImageSize: 0.1, Frequencies: freqs,
	}
	if mod != nil {
		mod(&params)
	}
	k, err := NewKernels(params)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// tilingItem builds a random work item with its uvw track and
// visibilities, returning the largest visibility component magnitude.
func tilingItem(seed uint64, nt, nc int) (plan.WorkItem, []uvwsim.UVW, []xmath.Matrix2, float64) {
	item := plan.WorkItem{NrTimesteps: nt, NrChannels: nc, X0: 100, Y0: 90}
	rnd := newTestRand(seed)
	uvw := make([]uvwsim.UVW, nt)
	for i := range uvw {
		uvw[i] = uvwsim.UVW{U: 50 * rnd(), V: 50 * rnd(), W: 5 * rnd()}
	}
	vis := make([]xmath.Matrix2, nt*nc)
	maxAmp := 0.0
	for i := range vis {
		for p := 0; p < 4; p++ {
			vis[i][p] = complex(rnd(), rnd())
			if a := cmplx.Abs(vis[i][p]); a > maxAmp {
				maxAmp = a
			}
		}
	}
	return item, uvw, vis, maxAmp
}

// randomSubgrid fills a subgrid with random pixels for degridder tests.
func randomSubgrid(sg int, item plan.WorkItem, seed uint64) (*grid.Subgrid, float64) {
	in := grid.NewSubgrid(sg, item.X0, item.Y0)
	rnd := newTestRand(seed)
	maxAmp := 0.0
	for c := range in.Data {
		for i := range in.Data[c] {
			in.Data[c][i] = complex(rnd(), rnd())
			if a := cmplx.Abs(in.Data[c][i]); a > maxAmp {
				maxAmp = a
			}
		}
	}
	return in, maxAmp
}

// subgridsEqual reports whether two subgrids hold numerically
// identical pixels (the decomposition-invariance contract of the
// gridder: per-pixel accumulation order does not depend on the tile or
// block shape).
func subgridsEqual(a, b *grid.Subgrid) bool {
	for p := range a.Data {
		for i := range a.Data[p] {
			if a.Data[p][i] != b.Data[p][i] {
				return false
			}
		}
	}
	return true
}

func visEqual(a, b []xmath.Matrix2) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// float32GridBound is the documented float32 gridder error bound for
// one pixel: every one of the n phasor applications can be off by the
// float64 recurrence bound plus the float32 rotation drift, and the
// accumulation itself rounds in float32 (xmath.Float32AccumBound).
func float32GridBound(n int, maxAmp, phaseBound float64) float64 {
	drift := phaseBound + xmath.Float32PhasorDriftBound(xmath.DefaultPhasorResync)
	sumAbs := math.Sqrt2 * float64(n) * maxAmp
	return 2*math.Sqrt2*float64(n)*maxAmp*drift + 4*xmath.Float32AccumBound(n, sumAbs)
}

// nonUniformComb is a five-channel comb with unequal spacing: no
// recurrence, every kernel evaluates a phasor per channel.
var nonUniformComb = []float64{150e6, 150.3e6, 150.9e6, 151.0e6, 152.2e6}

// tilingShapes are the work-item shapes the decomposition tests sweep:
// the paper's 12 x 16, then the shapes that evaluate a phasor per
// channel — the sparse workload's 8 x 2, a non-uniform comb and a single
// channel — then the recurrence with 37 channels, across a resync
// boundary (70), and at eight, twenty-four and sixty-four channels per
// time step.
type tilingShape struct {
	nt, nc int
	freqs  []float64 // nil: tilingKernels' uniform comb
}

var tilingShapes = []tilingShape{
	{12, 16, nil},
	{8, 2, nil},
	{7, 5, nonUniformComb},
	{9, 1, nil},
	{5, 37, nil},
	{3, 70, nil},
	{6, 8, nil},
	{5, 24, nil},
	{3, 64, nil},
}

// gaussianJones returns per-pixel Jones maps of two stations with
// Gaussian beams pointed slightly apart, plus a little polarization
// leakage so that no matrix element is zero or shared.
func gaussianJones(sg int) (p, q []xmath.Matrix2) {
	p, q = make([]xmath.Matrix2, sg*sg), make([]xmath.Matrix2, sg*sg)
	beam := func(x, y, x0, y0 float64) complex128 {
		dx, dy := (x-x0)/float64(sg), (y-y0)/float64(sg)
		return complex(math.Exp(-(dx*dx+dy*dy)/(2*0.35*0.35)), 0)
	}
	for y := 0; y < sg; y++ {
		for x := 0; x < sg; x++ {
			g := beam(float64(x), float64(y), 0.52*float64(sg), 0.47*float64(sg))
			h := beam(float64(x), float64(y), 0.46*float64(sg), 0.55*float64(sg))
			p[y*sg+x] = xmath.Matrix2{g, 0.05i * g, -0.03 * g, 0.9 * g}
			q[y*sg+x] = xmath.Matrix2{0.95 * h, 0.02 * h, 0.04i * h, h}
		}
	}
	return p, q
}

// atermTilingCases are the (subgrid size, A-term) combinations the
// decomposition and concurrency tests sweep: the small nil-map subgrid
// with every shape and variant, then Gaussian beams on the benchmark's
// subgrid sizes, on 18, whose one-row tiles leave a two-pixel tail
// behind the epilogue's registers, and on 28: with 20 and 24, tiles of one,
// three and four rows then hold 0, 4, 8 and 12 pixels mod 16, every
// way the pixel-lane gridder's last group of a tile can be filled.
var atermTilingCases = []struct {
	sg     int
	aterms bool
}{{8, false}, {16, true}, {18, true}, {20, true}, {24, true}, {28, true}}

// TestGridderDecompositionInvariance: for a fixed precision and code
// path, the gridder result must be numerically identical for EVERY
// pixel-tile height and visibility-block size, including degenerate
// ones — the per-pixel accumulation order is decomposition-invariant
// by construction.
func TestGridderDecompositionInvariance(t *testing.T) {
	for _, ac := range atermTilingCases {
		sg, shapes := ac.sg, tilingShapes
		var atermP, atermQ []xmath.Matrix2
		if ac.aterms {
			atermP, atermQ = gaussianJones(sg)
			// The paper's shape, short items, non-uniform, two resync chunks.
			shapes = []tilingShape{tilingShapes[0], tilingShapes[1], tilingShapes[2], tilingShapes[5]}
		}
		for _, shape := range shapes {
			nt, nc := shape.nt, shape.nc
			item, uvw, vis, _ := tilingItem(51, nt, nc)
			for _, tc := range []struct {
				name string
				mod  func(*Params)
			}{
				// The widest tier the host has, whatever IDG_SIMD says (the
				// seam clamps to the detected tier): on an avx512 host the
				// ZMM kernels, while the AVX2 variants keep the YMM ones
				// covered there.
				{"Float64", forceTier(xmath.SIMDAVX512)},
				{"Float64NoVec", forceTier(xmath.SIMDScalar)},
				{"Float64AVX2", forceTier(xmath.SIMDAVX2)},
				{"Float32", func(p *Params) { p.Precision = Float32 }},
				{"Float32AVX2", func(p *Params) { p.Precision = Float32; forceTier(xmath.SIMDAVX2)(p) }},
			} {
				name := fmt.Sprintf("%s/nt=%d,nc=%d", tc.name, nt, nc)
				if ac.aterms {
					name += fmt.Sprintf(",sg=%d,aterms", sg)
				}
				t.Run(name, func(t *testing.T) {
					kernels := func(v func(*Params)) *Kernels {
						return tilingKernels(t, sg, nc, func(p *Params) {
							if shape.freqs != nil {
								p.Frequencies = shape.freqs
							}
							if tc.mod != nil {
								tc.mod(p)
							}
							if v != nil {
								v(p)
							}
						})
					}
					want := grid.NewSubgrid(sg, item.X0, item.Y0)
					kernels(nil).GridSubgrid(item, uvw, vis, atermP, atermQ, want)
					variants := []func(*Params){}
					rows := []int{1, 3, 4, sg}
					if !ac.aterms {
						rows = rows[:0]
						for tr := 1; tr <= sg+3; tr++ {
							rows = append(rows, tr)
						}
					}
					for _, tr := range rows {
						tr := tr
						variants = append(variants, func(p *Params) { p.pixelTileRows = tr })
					}
					for _, bl := range []int{1, 3, 5, nt, nt + 7} {
						bl := bl
						variants = append(variants, func(p *Params) { p.visBlockTimesteps = bl })
					}
					// Tile heights x block sizes, from one pixel row and one time
					// step up to no tiling and no blocking.
					for _, tr := range []int{1, 3, 4, sg} {
						for _, bl := range []int{1, 3, nt} {
							tr, bl := tr, bl
							variants = append(variants, func(p *Params) { p.pixelTileRows = tr; p.visBlockTimesteps = bl })
						}
					}
					for vi, v := range variants {
						got := grid.NewSubgrid(sg, item.X0, item.Y0)
						kernels(v).GridSubgrid(item, uvw, vis, atermP, atermQ, got)
						if !subgridsEqual(want, got) {
							t.Fatalf("variant %d: gridder result depends on the tile/block decomposition", vi)
						}
					}
				})
			}
		}
	}
}

// TestPixelLaneIndependence: the pixel-lane gridder gives a pixel the
// same eight sums whichever group and lane it lands in and whatever
// shares its group — other pixels or the zeroed padding of a tile's
// last group. Pixel ranges that no row tiling produces (a single pixel,
// a group shifted by three, a range ending mid-group) are swept against
// the whole subgrid in one range, for a channel tail, for two resync
// chunks and for the shapes that stage a row per channel, at two block
// depths, in both precisions, on every tier (groups of four and eight
// pixels on scalar and avx2, sixteen and thirty-two on avx512).
func TestPixelLaneIndependence(t *testing.T) {
	t.Run("float64", testPixelLaneIndependence[float64])
	t.Run("float32", testPixelLaneIndependence[float32])
}

func testPixelLaneIndependence[F floatT](t *testing.T) {
	const sg = 10
	for _, sh := range shortAndUniformShapes(7, 5, 70) {
		nt, nc := sh.nt, sh.nc
		item, uvw, vis, _ := tilingItem(59, nt, nc)
		for _, tier := range coreHostTiers() {
			for _, bl := range []int{0, 3} {
				k := tilingKernels(t, sg, nc, func(p *Params) {
					p.visBlockTimesteps = bl
					sh.mod(p)
					forceTier(tier)(p)
				})
				s := k.getScratch()
				planar := grow(&bufsOf[F](s).planar, 8*nt*nc)
				for j, v := range vis {
					for p := 0; p < 4; p++ {
						planar[2*p*nt*nc+j], planar[(2*p+1)*nt*nc+j] = F(real(v[p])), F(imag(v[p]))
					}
				}
				// The sums come back in the tier's planar groups from the
				// start of the range.
				sum := func(sums []float64, i, j int) uint64 { return math.Float64bits(sums[sumAt(k.disp.sumsW, i, j)]) }
				want := append([]float64(nil), gridLanesPix[F](k, item, uvw, s, s, 0, sg*sg)...)
				for _, r := range [][2]int{{0, 1}, {41, 42}, {3, 19}, {7, 40}, {sg*sg - 5, sg * sg}, {16, 100}} {
					got := gridLanesPix[F](k, item, uvw, s, s, r[0], r[1])
					for i := r[0]; i < r[1]; i++ {
						for j := 0; j < 8; j++ {
							if sum(got, i-r[0], j) != sum(want, i, j) {
								t.Fatalf("%v %s block=%d: pixel %d sum %d depends on the range [%d, %d) it was gridded in",
									tier, sh.name, bl, i, j, r[0], r[1])
							}
						}
					}
				}
				k.putScratch(s)
			}
		}
	}
}

// TestPixelLaneGridderAdjoint: on every tier the pixel-lane
// gridder G and the fused degridder D of one work item are adjoint,
// <Gv, g> = <v, Dg>, in both precisions, with Gaussian A-terms and a
// subgrid whose tiles end in a partial group (float32: an 18-pixel
// subgrid, tiles of 72 and 36 pixels against groups of 32 or 8 and
// registers of 16 or 8; channel tails, one and two resync boundaries,
// and the shapes that stage a row per channel). Both sides evaluate the same phasors up
// to the recurrence's drift and sum up to 2000 terms (float64: measured
// mismatch 1e-15 to 5e-15 relative; float32: 2e-7 to 2e-6 against a
// tolerance of a thousand float32 roundings); a structural asymmetry (a
// dropped lane, a misplaced pixel) shows at the percent level.
func TestPixelLaneGridderAdjoint(t *testing.T) {
	for _, tier := range coreHostTiers() {
		testPixelLaneGridderAdjoint(t, tier)
	}
}

func testPixelLaneGridderAdjoint(t *testing.T, tier xmath.SIMDTier) {
	for _, tc := range []struct {
		prec   Precision
		sg     int
		shapes []itemShape
		tol    float64
	}{
		{Float64, 20, shortAndUniformShapes(9, 3, 16, 37, 70), 1e-12},
		{Float32, 18, shortAndUniformShapes(9, 5, 16, 66, 130), 1000 * 0x1p-24},
	} {
		atermP, atermQ := gaussianJones(tc.sg)
		for _, sh := range tc.shapes {
			nt, nc := sh.nt, sh.nc
			item, uvw, vis, _ := tilingItem(61, nt, nc)
			g, _ := randomSubgrid(tc.sg, item, 67)
			k := tilingKernels(t, tc.sg, nc, func(p *Params) {
				p.Precision = tc.prec
				sh.mod(p)
				forceTier(tier)(p)
			})
			gv := grid.NewSubgrid(tc.sg, item.X0, item.Y0)
			k.GridSubgrid(item, uvw, vis, atermP, atermQ, gv)
			dg := make([]xmath.Matrix2, nt*nc)
			k.DegridSubgrid(item, g, uvw, atermP, atermQ, dg)
			var lhs, rhs complex128
			for p := range gv.Data {
				for i := range gv.Data[p] {
					lhs += cmplx.Conj(gv.Data[p][i]) * g.Data[p][i]
				}
			}
			for j := range vis {
				for p := 0; p < 4; p++ {
					rhs += cmplx.Conj(vis[j][p]) * dg[j][p]
				}
			}
			d := cmplx.Abs(lhs-rhs) / cmplx.Abs(lhs)
			t.Logf("%v %v %s: adjoint mismatch %.2g relative", tier, tc.prec, sh.name, d)
			if d > tc.tol {
				t.Fatalf("%v %v %s: adjoint violated: <Gv,g>=%v, <v,Dg>=%v (rel %g)", tier, tc.prec, sh.name, lhs, rhs, d)
			}
		}
	}
}

// TestGridderTiledMatchesReference: every tile size in [1, subgrid]
// and both precisions against the float64 reference transcription,
// within the documented bounds.
func TestGridderTiledMatchesReference(t *testing.T) {
	const sg, nt, nc = 16, 12, 16
	item, uvw, vis, maxAmp := tilingItem(53, nt, nc)
	ref := tilingKernels(t, sg, nc, func(p *Params) { p.disableBatching = true })
	want := grid.NewSubgrid(sg, item.X0, item.Y0)
	ref.GridSubgrid(item, uvw, vis, nil, nil, want)
	phaseBound := evaluatedPhaseBound(ref, item, uvw)
	tol64 := 2 * math.Sqrt2 * float64(nt*nc) * maxAmp * phaseBound
	tol32 := float32GridBound(nt*nc, maxAmp, phaseBound)
	for _, prec := range []Precision{Float64, Float32} {
		tol := tol64
		if prec == Float32 {
			tol = tol32
		}
		for tr := 1; tr <= sg; tr++ {
			k := tilingKernels(t, sg, nc, func(p *Params) {
				p.Precision = prec
				p.pixelTileRows = tr
			})
			got := grid.NewSubgrid(sg, item.X0, item.Y0)
			k.GridSubgrid(item, uvw, vis, nil, nil, got)
			if d := got.MaxAbsDiff(want); d > tol {
				t.Fatalf("%v tile rows %d: differs from reference by %g (bound %g)", prec, tr, d, tol)
			}
		}
	}
}

// TestDegridderTiledMatchesReference is the degridder analogue; the
// per-visibility sum runs over the subgrid's pixels, so the bounds
// scale with the pixel count.
func TestDegridderTiledMatchesReference(t *testing.T) {
	const sg, nt, nc = 16, 10, 16
	item, uvw, _, _ := tilingItem(57, nt, nc)
	in, maxAmp := randomSubgrid(sg, item, 59)
	ref := tilingKernels(t, sg, nc, func(p *Params) { p.disableBatching = true })
	want := make([]xmath.Matrix2, nt*nc)
	ref.DegridSubgrid(item, in, uvw, nil, nil, want)
	phaseBound := recurrencePhaseBound(ref, item, uvw)
	npix := sg * sg
	tol64 := 2 * math.Sqrt2 * float64(npix) * maxAmp * phaseBound
	tol32 := float32GridBound(npix, maxAmp, phaseBound)
	for _, prec := range []Precision{Float64, Float32} {
		tol := tol64
		if prec == Float32 {
			tol = tol32
		}
		for tr := 1; tr <= sg; tr++ {
			k := tilingKernels(t, sg, nc, func(p *Params) {
				p.Precision = prec
				p.pixelTileRows = tr
			})
			got := make([]xmath.Matrix2, nt*nc)
			k.DegridSubgrid(item, in, uvw, nil, nil, got)
			maxDiff := 0.0
			for i := range got {
				for p := 0; p < 4; p++ {
					if d := cmplx.Abs(got[i][p] - want[i][p]); d > maxDiff {
						maxDiff = d
					}
				}
			}
			if maxDiff > tol {
				t.Fatalf("%v tile rows %d: differs from reference by %g (bound %g)", prec, tr, maxDiff, tol)
			}
		}
	}
}

// TestDegridderSerialParallelBitwise: for a FIXED tile size, running
// the tiles on one worker or many must give numerically identical
// visibilities — the parallel path splits the time steps, each span
// running every tile in tile order, the serial addition sequence. Subgrid sizes 8 and
// 10 cover both the lane-aligned and the tail-carrying vector paths
// (one-row tiles of 8 and of 10 pixels: whole registers, and a two-pixel
// masked tail), 70 channels a second resync chunk, and every executable
// tier runs, so an avx512 host still covers the YMM degridder beside the
// ZMM one.
func TestDegridderSerialParallelBitwise(t *testing.T) {
	const nt = 9
	for _, nc := range []int{8, 70} {
		for _, sg := range []int{8, 10} {
			for _, tier := range coreHostTiers() {
				for _, prec := range []Precision{Float64, Float32} {
					item, uvw, _, _ := tilingItem(61, nt, nc)
					in, _ := randomSubgrid(sg, item, 63)
					mod := func(workers int) func(*Params) {
						return func(p *Params) {
							p.Precision = prec
							p.pixelTileRows = 1
							p.Workers = workers
							forceTier(tier)(p)
						}
					}
					serial := tilingKernels(t, sg, nc, mod(1))
					parallel := tilingKernels(t, sg, nc, mod(8))
					want := make([]xmath.Matrix2, nt*nc)
					serial.DegridSubgrid(item, in, uvw, nil, nil, want)
					got := make([]xmath.Matrix2, nt*nc)
					parallel.DegridSubgrid(item, in, uvw, nil, nil, got)
					if !visEqual(want, got) {
						t.Fatalf("nc=%d sg=%d %v %v: parallel degridder differs from serial", nc, sg, tier, prec)
					}
				}
			}
		}
	}
}

// TestDegridderSeedBlockInvariance: the degridder seeds its phasors a
// block of time steps per sincos call, and the block depth reaches no
// bit — seed blocks of one step, of three (a short last block), and of
// the whole item give the same visibilities, on every executable tier in
// both precisions, for channel counts below the recurrence threshold,
// uniform ones with an odd and an even count, and one longer than a
// ZMM pair sweep's registers hold.
func TestDegridderSeedBlockInvariance(t *testing.T) {
	const sg, nt = 10, 8
	for _, nc := range []int{2, 5, 16, 37} {
		item, uvw, _, _ := tilingItem(71, nt, nc)
		in, _ := randomSubgrid(sg, item, 73)
		for _, tier := range coreHostTiers() {
			for _, prec := range []Precision{Float64, Float32} {
				var want []xmath.Matrix2
				for _, block := range []int{1, 3, nt} {
					k := tilingKernels(t, sg, nc, func(p *Params) {
						p.Precision, p.visBlockTimesteps, p.Workers = prec, block, 1
						forceTier(tier)(p)
					})
					got := make([]xmath.Matrix2, nt*nc)
					k.DegridSubgrid(item, in, uvw, nil, nil, got)
					if want == nil {
						want = got
					} else if !visEqual(want, got) {
						t.Fatalf("nc=%d %v %v: seed block %d differs from block 1", nc, tier, prec, block)
					}
				}
			}
		}
	}
}

// TestKernelsConcurrentDeterminism: concurrent kernel invocations with
// intra-subgrid tile parallelism must all reproduce the single-worker
// result exactly. Run under -race in CI, this also proves the tile
// fan-out and scratch handoff are data-race free.
func TestKernelsConcurrentDeterminism(t *testing.T) {
	for _, ac := range atermTilingCases {
		sg := 10
		shapes := append([]tilingShape{{8, 8, nil}}, tilingShapes[1:]...)
		precisions := []Precision{Float64}
		var atermP, atermQ []xmath.Matrix2
		if ac.aterms {
			sg = ac.sg
			atermP, atermQ = gaussianJones(sg)
			shapes = shapes[:3]
			precisions = []Precision{Float64, Float32}
		}
		for _, shape := range shapes {
			for _, prec := range precisions {
				nt, nc := shape.nt, shape.nc
				item, uvw, vis, _ := tilingItem(67, nt, nc)
				in, _ := randomSubgrid(sg, item, 69)
				mod := func(workers int) func(*Params) {
					return func(p *Params) {
						if shape.freqs != nil {
							p.Frequencies = shape.freqs
						}
						p.Precision = prec
						p.pixelTileRows = 2
						p.Workers = workers
					}
				}
				serial := tilingKernels(t, sg, nc, mod(1))
				parallel := tilingKernels(t, sg, nc, mod(8))
				wantGrid := grid.NewSubgrid(sg, item.X0, item.Y0)
				serial.GridSubgrid(item, uvw, vis, atermP, atermQ, wantGrid)
				wantVis := make([]xmath.Matrix2, nt*nc)
				serial.DegridSubgrid(item, in, uvw, atermP, atermQ, wantVis)

				const goroutines, rounds = 4, 3
				var wg sync.WaitGroup
				errs := make(chan string, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							out := grid.NewSubgrid(sg, item.X0, item.Y0)
							parallel.GridSubgrid(item, uvw, vis, atermP, atermQ, out)
							if !subgridsEqual(wantGrid, out) {
								errs <- "concurrent gridder result differs"
								return
							}
							pv := make([]xmath.Matrix2, nt*nc)
							parallel.DegridSubgrid(item, in, uvw, atermP, atermQ, pv)
							if !visEqual(wantVis, pv) {
								errs <- "concurrent degridder result differs"
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for msg := range errs {
					t.Fatalf("sg=%d nt=%d nc=%d %v: %s", sg, nt, nc, prec, msg)
				}
			}
		}
	}
}

// TestFlaggedVisibilitiesExactZero: fully flagged (zeroed) inputs must
// produce exact zeros on every code path — no drift, no denormal dust
// from the phasor arithmetic.
func TestFlaggedVisibilitiesExactZero(t *testing.T) {
	const sg, nt, nc = 8, 6, 8
	item, uvw, _, _ := tilingItem(71, nt, nc)
	vis := make([]xmath.Matrix2, nt*nc) // all zero
	zeroIn := grid.NewSubgrid(sg, item.X0, item.Y0)
	for _, tc := range []struct {
		name string
		mod  func(*Params)
	}{
		{"Float64", nil},
		{"Float64NoVec", forceTier(xmath.SIMDScalar)},
		{"Float32", func(p *Params) { p.Precision = Float32 }},
		{"Reference", func(p *Params) { p.disableBatching = true }},
	} {
		k := tilingKernels(t, sg, nc, tc.mod)
		out := grid.NewSubgrid(sg, item.X0, item.Y0)
		k.GridSubgrid(item, uvw, vis, nil, nil, out)
		for p := range out.Data {
			for i, v := range out.Data[p] {
				if v != 0 {
					t.Fatalf("%s: gridded zero visibilities produced pixel %d = %v", tc.name, i, v)
				}
			}
		}
		pv := make([]xmath.Matrix2, nt*nc)
		pv[0] = xmath.Matrix2{1, 1, 1, 1} // must be overwritten
		k.DegridSubgrid(item, zeroIn, uvw, nil, nil, pv)
		for i, v := range pv {
			if v != (xmath.Matrix2{}) {
				t.Fatalf("%s: degridded zero subgrid produced visibility %d = %v", tc.name, i, v)
			}
		}
	}
}

// TestVectorKernelsMatchScalar pins the active tier's float64 path
// against the scalar tier's Go lanes: both apply the same resync cadence,
// so they agree to within twice the recurrence bound (each side's drift)
// on hardware where the vector kernels run at all — avx2 to the bit. The
// channel counts take the recurrence within one resync chunk (16, 21,
// 37) and across one (70).
func TestVectorKernelsMatchScalar(t *testing.T) {
	if xmath.ActiveSIMD() == xmath.SIMDScalar {
		t.Skip("vector kernels unavailable on this CPU")
	}
	const sg, nt = 16, 10
	for _, nc := range []int{16, 21, 37, 70} {
		item, uvw, vis, maxAmp := tilingItem(73, nt, nc)
		in, pixAmp := randomSubgrid(sg, item, 79)
		vecK := tilingKernels(t, sg, nc, nil)
		scalK := tilingKernels(t, sg, nc, forceTier(xmath.SIMDScalar))
		phaseBound := recurrencePhaseBound(vecK, item, uvw)

		a := grid.NewSubgrid(sg, item.X0, item.Y0)
		b := grid.NewSubgrid(sg, item.X0, item.Y0)
		vecK.GridSubgrid(item, uvw, vis, nil, nil, a)
		scalK.GridSubgrid(item, uvw, vis, nil, nil, b)
		tol := 2 * 2 * math.Sqrt2 * float64(nt*nc) * maxAmp * phaseBound
		if d := a.MaxAbsDiff(b); d > tol {
			t.Fatalf("nc=%d: vector gridder differs from scalar by %g (bound %g)", nc, d, tol)
		}

		va := make([]xmath.Matrix2, nt*nc)
		vb := make([]xmath.Matrix2, nt*nc)
		vecK.DegridSubgrid(item, in, uvw, nil, nil, va)
		scalK.DegridSubgrid(item, in, uvw, nil, nil, vb)
		npix := sg * sg
		tol = 2 * 2 * math.Sqrt2 * float64(npix) * pixAmp * phaseBound
		for i := range va {
			for p := 0; p < 4; p++ {
				if d := cmplx.Abs(va[i][p] - vb[i][p]); d > tol {
					t.Fatalf("nc=%d: vector degridder differs from scalar by %g at vis %d (bound %g)", nc, d, i, tol)
				}
			}
		}
	}
}

// TestTiledEdgeChannelCounts covers the channel-count edge cases: no
// recurrence (nc < 3), the recurrence at its threshold and just above,
// and a single channel, for both precisions, against the reference
// transcription.
func TestTiledEdgeChannelCounts(t *testing.T) {
	const sg, nt = 10, 5
	for _, nc := range []int{1, 2, 3, 4, 5} {
		item, uvw, vis, maxAmp := tilingItem(83+uint64(nc), nt, nc)
		ref := tilingKernels(t, sg, nc, func(p *Params) { p.disableBatching = true })
		want := grid.NewSubgrid(sg, item.X0, item.Y0)
		ref.GridSubgrid(item, uvw, vis, nil, nil, want)
		phaseBound := recurrencePhaseBound(ref, item, uvw)
		for _, prec := range []Precision{Float64, Float32} {
			k := tilingKernels(t, sg, nc, func(p *Params) {
				p.Precision = prec
				p.pixelTileRows = 3 // does not divide sg: exercises the short last tile
			})
			got := grid.NewSubgrid(sg, item.X0, item.Y0)
			k.GridSubgrid(item, uvw, vis, nil, nil, got)
			tol := 2*math.Sqrt2*float64(nt*nc)*maxAmp*phaseBound + 1e-9
			if prec == Float32 {
				tol = float32GridBound(nt*nc, maxAmp, phaseBound) + 1e-9
			}
			if d := got.MaxAbsDiff(want); d > tol {
				t.Fatalf("nc=%d %v: differs from reference by %g (bound %g)", nc, prec, d, tol)
			}
		}
	}
}

// TestFloat32PrecisionValidate pins the Params surface: the zero value
// defaults to Float64, unknown values are rejected, and the two
// precisions stringify for logs.
func TestFloat32PrecisionValidate(t *testing.T) {
	if Float64 != 0 {
		t.Fatal("Float64 must be the zero value of Precision")
	}
	p := Params{
		GridSize: 64, SubgridSize: 8, ImageSize: 0.1,
		Frequencies: []float64{150e6}, Precision: Precision(7),
	}
	if err := p.Validate(); err == nil {
		t.Fatal("unknown precision must fail validation")
	}
	if Float64.String() == Float32.String() {
		t.Fatal("precisions must stringify distinctly")
	}
}

// TestParamsValidateNonFinite: an image size or a channel frequency that
// is not a positive finite number is rejected before it can grid
// silently to NaN.
func TestParamsValidateNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Params)
	}{
		{"NaN image size", func(p *Params) { p.ImageSize = math.NaN() }},
		{"+Inf image size", func(p *Params) { p.ImageSize = math.Inf(1) }},
		{"-Inf image size", func(p *Params) { p.ImageSize = math.Inf(-1) }},
		{"NaN frequency", func(p *Params) { p.Frequencies = []float64{150e6, math.NaN()} }},
		{"+Inf frequency", func(p *Params) { p.Frequencies = []float64{math.Inf(1)} }},
	} {
		p := Params{GridSize: 64, SubgridSize: 8, ImageSize: 0.1, Frequencies: []float64{150e6}}
		tc.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestParamsValidateFieldOfView: an image size whose corner pixel lies
// outside the unit sphere is rejected, at the bound and above it, and
// neither NewKernels nor a W-screen over the grid panics for any size
// Validate accepts.
func TestParamsValidateFieldOfView(t *testing.T) {
	for _, tc := range []struct {
		size float64
		ok   int // 1 accepted, -1 rejected, 0 either (at the bound)
	}{
		{1.4, 1},
		{math.Sqrt2, 0},
		{math.Nextafter(math.Sqrt2, 2), 0},
		{1.42, -1},
		{1.5, -1},
	} {
		p := Params{GridSize: 64, SubgridSize: 24, ImageSize: tc.size, Frequencies: []float64{150e6}, Workers: 1}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("image size %v: panic %v", tc.size, r)
				}
			}()
			_, err := NewKernels(p)
			switch {
			case tc.ok == 1 && err != nil:
				t.Errorf("image size %v: rejected: %v", tc.size, err)
			case tc.ok == -1 && err == nil:
				t.Errorf("image size %v: accepted", tc.size)
			}
			if err == nil {
				ApplyWScreen(grid.NewGrid(p.GridSize), p.ImageSize, 1, 1)
			}
		}()
	}
}
