package core

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/grid"
	"repro/internal/xmath"
)

// Tests of the gridder epilogue and degridder prologue: the assembled
// sandwiches and the scalar tier's per-pixel ones over canary-fenced
// exact-length buffers (see kernels_asm_test.go), bitwise against their
// math.FMA transcriptions
// and to rounding against the Matrix2 arithmetic of storePixel and
// correctedPixel, with Jones maps that are neither Hermitian nor
// diagonal — a transposed index or a missed conjugate shows up here,
// not only in the benchmark's rms gate.

func asComplex(b []float64) []complex128 {
	return unsafe.Slice((*complex128)(unsafe.Pointer(&b[0])), len(b)/2)
}

// sandwichKernels returns a bare Kernels per tier this host has, with
// the given taper: what gridEpilogue and degridPrologue read.
func sandwichKernels(taper []float64) (ks []*Kernels) {
	for _, tier := range coreHostTiers() {
		ks = append(ks, &Kernels{taper: taper, disp: dispatchFor(tier)})
	}
	return ks
}

// sumsLen is the exact length of npix pixels' sums in planar groups of
// w, and sumAt the index of sum j of pixel i in them.
func sumsLen(npix, w int) int {
	if r := npix % w; r > 0 {
		return 8*w*(npix/w) + 7*w + r
	}
	return 8 * npix
}

func sumAt(w, i, j int) int { return 8*w*(i/w) + w*j + i%w }

// sandwichTol is the rounding allowance between the FMA sandwiches and
// the Matrix2 oracle for one pixel: 1e-14 of the product of the operand
// norms (the terms that cancel in the result are of that size).
func sandwichTol(s, p, q xmath.Matrix2, taper float64) float64 {
	norm := func(m xmath.Matrix2) (n float64) {
		for _, v := range m {
			n += math.Hypot(real(v), imag(v))
		}
		return n
	}
	return 1e-14 * norm(s) * norm(p) * norm(q) * math.Abs(taper)
}

// sandwichCase is the operands the two sandwich tests share for npix
// pixels: a taper with zeros of both signs and subnormals among its
// values, and the planes of two full random Jones maps — or none.
func sandwichCase(c *canaried, npix int, maps bool) (taper []float64, a jones) {
	taper = c.buf(npix)
	for i, special := range []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310} {
		for j := i + 1; j < npix; j += 6 {
			taper[j] = special
		}
	}
	if maps {
		a = jones{pp: c.buf(8 * npix), qp: c.buf(8 * npix)}
	}
	return taper, a
}

// TestGridSandwichBoundsTranscriptionAndOracle: the gridder epilogue of
// every tier, with Jones planes and taper-only, for every pixel
// count up to four registers and a tail, stays inside exact-length
// buffers and equals gridSandwichPixel (taper-only: the plain product)
// bit for bit, and storePixel to rounding.
func TestGridSandwichBoundsTranscriptionAndOracle(t *testing.T) {
	for npix := 1; npix <= 33; npix++ {
		for _, maps := range []bool{true, false} {
			c := &canaried{rnd: newTestRand(uint64(400 + npix))}
			taper, a := sandwichCase(c, npix, maps)
			for _, k := range sandwichKernels(taper) {
				w := k.disp.sumsW
				what := fmt.Sprintf("gridEpilogue %v npix=%d maps=%v", k.disp.tier, npix, maps)
				sums := c.buf(sumsLen(npix, w))
				out := &grid.Subgrid{N: 1}
				for i := range out.Data {
					out.Data[i] = asComplex(c.buf(2 * npix))
				}
				k.gridEpilogue(out, 0, npix, sums, a)
				c.check(t, what)
				for i := 0; i < npix; i++ {
					var s [8]float64
					for j := range s {
						s[j] = sums[sumAt(w, i, j)]
					}
					sm := xmath.Matrix2{complex(s[0], s[1]), complex(s[2], s[3]), complex(s[4], s[5]), complex(s[6], s[7])}
					p, q := xmath.Identity2(), xmath.Identity2()
					if maps {
						p, q = a.at(i)
					}
					r := a.sandwichPixel(i, &s, taper[i], false)
					// The oracle: storePixel on a one-pixel subgrid.
					ref := &grid.Subgrid{N: 1}
					for cc := range ref.Data {
						ref.Data[cc] = make([]complex128, 1)
					}
					(&Kernels{taper: taper[i : i+1]}).storePixel(ref, 0, sm, jonesOf(&scratch{}, []xmath.Matrix2{p}, []xmath.Matrix2{q}))
					for cc := range out.Data {
						got := out.Data[cc][i]
						if math.Float64bits(real(got)) != math.Float64bits(r[2*cc]) || math.Float64bits(imag(got)) != math.Float64bits(r[2*cc+1]) {
							t.Fatalf("%s: pixel %d plane %d = %v, transcription gives (%v, %v)", what, i, cc, got, r[2*cc], r[2*cc+1])
						}
						if d := cAbs(got - ref.Data[cc][0]); d > sandwichTol(sm, p, q, taper[i]) {
							t.Fatalf("%s: pixel %d plane %d = %v, storePixel gives %v (off by %g)", what, i, cc, got, ref.Data[cc][0], d)
						}
					}
				}
			}
		}
	}
}

// TestDegridSandwichBoundsTranscriptionAndOracle is the same for the
// degridder prologue against degridSandwichPixel and correctedPixel.
func TestDegridSandwichBoundsTranscriptionAndOracle(t *testing.T) {
	for npix := 1; npix <= 33; npix++ {
		for _, maps := range []bool{true, false} {
			c := &canaried{rnd: newTestRand(uint64(500 + npix))}
			taper, a := sandwichCase(c, npix, maps)
			for _, k := range sandwichKernels(taper) {
				what := fmt.Sprintf("degridPrologue %v npix=%d maps=%v", k.disp.tier, npix, maps)
				in := &grid.Subgrid{N: 1}
				for i := range in.Data {
					in.Data[i] = asComplex(c.buf(2 * npix))
				}
				planes := c.buf(8 * npix)
				degridPrologue(k, in, a, nil, planes)
				c.check(t, what)
				for i := 0; i < npix; i++ {
					sm := xmath.Matrix2{in.Data[0][i], in.Data[1][i], in.Data[2][i], in.Data[3][i]}
					sv := parts(&sm)
					p, q := xmath.Identity2(), xmath.Identity2()
					if maps {
						p, q = a.at(i)
					}
					r := a.sandwichPixel(i, &sv, taper[i], true)
					ref := k.correctedPixel(in, i, a)
					for cc := 0; cc < 4; cc++ {
						re, im := planes[2*cc*npix+i], planes[(2*cc+1)*npix+i]
						if math.Float64bits(re) != math.Float64bits(r[2*cc]) || math.Float64bits(im) != math.Float64bits(r[2*cc+1]) {
							t.Fatalf("%s: pixel %d plane %d = (%v, %v), transcription gives (%v, %v)", what, i, cc, re, im, r[2*cc], r[2*cc+1])
						}
						if d := cAbs(complex(re, im) - ref[cc]); d > sandwichTol(sm, p, q, taper[i]) {
							t.Fatalf("%s: pixel %d plane %d = (%v, %v), correctedPixel gives %v (off by %g)", what, i, cc, re, im, ref[cc], d)
						}
					}
				}
			}
		}
	}
}

// randomJones fills per-pixel Jones maps with full random complex 2x2
// matrices around the identity.
func randomJones(seed uint64, npix int) (p, q []xmath.Matrix2) {
	rnd := newTestRand(seed)
	p, q = make([]xmath.Matrix2, npix), make([]xmath.Matrix2, npix)
	for i := range p {
		for j := 0; j < 4; j++ {
			p[i][j] = complex(0.4*rnd(), 0.4*rnd())
			q[i][j] = complex(0.4*rnd(), 0.4*rnd())
		}
		p[i][0], p[i][3] = p[i][0]+1, p[i][3]+1
		q[i][0], q[i][3] = q[i][0]+1, q[i][3]+1
	}
	return p, q
}

// TestEpilogueAndPrologueAgainstOracleKernels: whole kernels on every
// tier against the reference kernels (storePixel / correctedPixel around
// Algorithm 1 and 2), with random Jones maps and with nil maps, both
// precisions, on a subgrid whose tiles leave pixel tails. The visibility
// loops differ by the recurrence, reassociation and FMA, so the
// comparison is to the kernels' own rounding class, far below what any
// mis-wired matrix element would produce.
func TestEpilogueAndPrologueAgainstOracleKernels(t *testing.T) {
	const sg = 18
	jp, jq := randomJones(75, sg*sg)
	// 8 x 2 is the short-item shape (a phasor per channel); 6 x 4 takes
	// the recurrence.
	for _, shape := range [][2]int{{8, 2}, {6, 4}} {
		nt, nc := shape[0], shape[1]
		item, uvw, vis, _ := tilingItem(71, nt, nc)
		in, _ := randomSubgrid(sg, item, 73)
		for _, prec := range []Precision{Float64, Float32} {
			tol := 1e-11
			if prec == Float32 {
				tol = 2e-4
			}
			for _, maps := range []string{"random-jones", "nil"} {
				p, q := jp, jq
				if maps == "nil" {
					p, q = nil, nil
				}
				t.Run(fmt.Sprintf("%dx%d/%v/%s", nt, nc, prec, maps), func(t *testing.T) {
					ref := tilingKernels(t, sg, nc, func(pr *Params) { pr.disableBatching = true })
					want := grid.NewSubgrid(sg, item.X0, item.Y0)
					ref.GridSubgrid(item, uvw, vis, p, q, want)
					wv := make([]xmath.Matrix2, nt*nc)
					ref.DegridSubgrid(item, in, uvw, p, q, wv)
					for _, tier := range coreHostTiers() {
						k := tilingKernels(t, sg, nc, func(pr *Params) {
							pr.Precision = prec
							pr.pixelTileRows = 1 // 18-pixel tiles: two tail pixels each
							forceTier(tier)(pr)
						})
						got := grid.NewSubgrid(sg, item.X0, item.Y0)
						k.GridSubgrid(item, uvw, vis, p, q, got)
						if d := got.MaxAbsDiff(want); d > tol*float64(nt*nc) {
							t.Errorf("%v gridder: tile off the reference by %g", tier, d)
						}
						gv := make([]xmath.Matrix2, nt*nc)
						k.DegridSubgrid(item, in, uvw, p, q, gv)
						for j := range gv {
							for cc := range gv[j] {
								if d := cAbs(gv[j][cc] - wv[j][cc]); d > tol*float64(sg*sg) {
									t.Fatalf("%v degridder: visibility %d corr %d off the reference by %g", tier, j, cc, d)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestOneBlockEqualsThreeBlocks: the short-item shape with A-terms,
// gridded in one visibility block and in three, is bitwise equal: a
// pixel's sums grow in the same (t, c) order however the block is cut.
func TestOneBlockEqualsThreeBlocks(t *testing.T) {
	const sg, nt, nc = 18, 12, 2
	item, uvw, vis, _ := tilingItem(81, nt, nc)
	p, q := randomJones(83, sg*sg)
	run := func(block int) *grid.Subgrid {
		k := tilingKernels(t, sg, nc, func(pr *Params) { pr.visBlockTimesteps = block })
		out := grid.NewSubgrid(sg, item.X0, item.Y0)
		k.GridSubgrid(item, uvw, vis, p, q, out)
		return out
	}
	if one, three := run(nt), run(nt/3); !subgridsEqual(one, three) {
		t.Fatal("a one-block and a three-block pass over the same samples differ")
	}
}
