package xmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refBfly applies the fused radix-4 butterfly with plain Go complex
// arithmetic, the ground truth both tiers must match bitwise.
func refBfly(a, b, c, d, w1, w2 complex128, inverse bool) (complex128, complex128, complex128, complex128) {
	tb := w1 * b
	td := w1 * d
	a1, b1 := a+tb, a-tb
	c1, d1 := c+td, c-td
	tc := w2 * c1
	w3 := complex(imag(w2), -real(w2))
	if inverse {
		w3 = complex(-imag(w2), real(w2))
	}
	te := w3 * d1
	return a1 + tc, b1 + te, a1 - tc, b1 - te
}

func randComplexes(rnd *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
	}
	return x
}

func unit(ang float64) complex128 {
	return complex(math.Cos(ang), math.Sin(ang))
}

func TestR4StageTwTiersBitwise(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, h := range []int{1, 2, 4, 8, 16, 32} {
		for _, blocks := range []int{1, 2, 3} {
			n := 4 * h * blocks
			tw1 := make([]complex128, h)
			tw2 := make([]complex128, h)
			for j := 0; j < h; j++ {
				tw1[j] = unit(-math.Pi * float64(j) / float64(h))
				tw2[j] = unit(-math.Pi * float64(j) / float64(2*h))
			}
			x := randComplexes(rnd, n)

			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), x...)
				for base := 0; base < n; base += 4 * h {
					for j := 0; j < h; j++ {
						q := want[base : base+4*h]
						q[j], q[j+h], q[j+2*h], q[j+3*h] =
							refBfly(q[j], q[j+h], q[j+2*h], q[j+3*h], tw1[j], tw2[j], inverse)
					}
				}

				for _, tier := range execTiers() {
					got, back := fenced(x)
					R4StageTwAt(tier, got, h, tw1, tw2, inverse)
					checkFence(t, fmt.Sprintf("R4StageTwAt tier=%v h=%d", tier, h), back)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("tier=%v h=%d n=%d inv=%v: elem %d = %v, want %v",
								tier, h, n, inverse, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestR4ColsTiersBitwise(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	w1 := unit(-0.3)
	w2 := unit(-0.15)
	// Every width up to 25 exercises the pair loops' odd lane and the
	// quad loops' masked last quad.
	for lanes := 1; lanes <= 25; lanes++ {
		for _, inverse := range []bool{false, true} {
			a := randComplexes(rnd, lanes)
			b := randComplexes(rnd, lanes)
			c := randComplexes(rnd, lanes)
			d := randComplexes(rnd, lanes)

			wa := append([]complex128(nil), a...)
			wb := append([]complex128(nil), b...)
			wc := append([]complex128(nil), c...)
			wd := append([]complex128(nil), d...)
			for i := 0; i < lanes; i++ {
				wa[i], wb[i], wc[i], wd[i] = refBfly(a[i], b[i], c[i], d[i], w1, w2, inverse)
			}

			for _, tier := range execTiers() {
				what := fmt.Sprintf("R4ColsAt tier=%v lanes=%d inv=%v", tier, lanes, inverse)
				ga, ba := fenced(a)
				gb, bb := fenced(b)
				gc, bc := fenced(c)
				gd, bd := fenced(d)
				R4ColsAt(tier, ga, gb, gc, gd, w1, w2, inverse)
				requireSameBits(t, what+" a", ga, wa)
				requireSameBits(t, what+" b", gb, wb)
				requireSameBits(t, what+" c", gc, wc)
				requireSameBits(t, what+" d", gd, wd)
				for _, back := range [][]complex128{ba, bb, bc, bd} {
					checkFence(t, what, back)
				}
			}
		}
	}
}

// execTiers lists every tier this host can execute, scalar first.
func execTiers() []SIMDTier {
	var tiers []SIMDTier
	for tier := SIMDScalar; tier <= DetectedSIMD(); tier++ {
		tiers = append(tiers, tier)
	}
	return tiers
}

// DFT4Blocks is the 4-point DFT of every quad (whose input is in
// bit-reversed order, as the first stage of the engine receives it),
// bitwise the Go body on every tier, in place inside its fence, for
// 1..25 quads.
func TestDFT4BlocksTiers(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	for quads := 1; quads <= 25; quads++ {
		for _, inverse := range []bool{false, true} {
			in := randComplexes(rnd, 4*quads)
			want := append([]complex128(nil), in...)
			dft4Go(want, inverse)
			sign := -1.0
			if inverse {
				sign = 1
			}
			for q := 0; q < quads; q++ {
				for k := 0; k < 4; k++ {
					var sum complex128
					for j := 0; j < 4; j++ {
						sum += in[4*q+[4]int{0, 2, 1, 3}[j]] * unit(sign*2*math.Pi*float64(j*k)/4)
					}
					if d := cmplxAbs(want[4*q+k] - sum); d > 1e-13 {
						t.Fatalf("quads=%d inverse=%v: quad %d output %d off the direct DFT by %g", quads, inverse, q, k, d)
					}
				}
			}
			for _, tier := range execTiers() {
				what := fmt.Sprintf("DFT4Blocks tier=%v quads=%d inverse=%v", tier, quads, inverse)
				got, back := fenced(in)
				DFT4Blocks(tier, got, inverse)
				requireSameBits(t, what, got, want)
				checkFence(t, what, back)
			}
		}
	}
}

// AddSubLanes in place and out of place, 1..25 lanes, every tier.
func TestAddSubLanes(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	for w := 1; w <= 25; w++ {
		x, y := randComplexes(rnd, w), randComplexes(rnd, w)
		wantA, wantB := make([]complex128, w), make([]complex128, w)
		for i := range x {
			wantA[i], wantB[i] = x[i]+y[i], x[i]-y[i]
		}
		for _, tier := range execTiers() {
			what := fmt.Sprintf("AddSubLanes tier=%v w=%d", tier, w)
			fx, _ := fenced(x)
			fy, _ := fenced(y)
			a, ba := fenced(make([]complex128, w))
			b, bb := fenced(make([]complex128, w))
			AddSubLanes(tier, a, b, fx, fy)
			requireSameBits(t, what, a, wantA)
			requireSameBits(t, what, b, wantB)
			requireSameBits(t, what+" (source)", fx, x)
			checkFence(t, what, ba)
			checkFence(t, what, bb)
			AddSubLanes(tier, fx, fy, fx, fy)
			requireSameBits(t, what+" in place", fx, wantA)
			requireSameBits(t, what+" in place", fy, wantB)
		}
	}
}

// The lane routines below get exact-length buffers cut out of larger
// allocations whose surroundings hold NaN canaries: a store past the
// end changes a canary's bits, a load past the end (or at a wrong
// stride) feeds a NaN into the result, and the result must equal the
// scalar body bit for bit.

const laneCanaryPad = 8

var laneCanary = complex(math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0x7ff8dead0000beef))

// fenced returns a copy of x with canaries on both sides, and the
// backing array for checkFence.
func fenced(x []complex128) (buf, backing []complex128) {
	backing = make([]complex128, len(x)+2*laneCanaryPad)
	for i := range backing {
		backing[i] = laneCanary
	}
	buf = backing[laneCanaryPad : laneCanaryPad+len(x) : laneCanaryPad+len(x)]
	copy(buf, x)
	return buf, backing
}

func checkFence(t *testing.T, what string, backing []complex128) {
	t.Helper()
	bits := math.Float64bits(real(laneCanary))
	for i := 0; i < laneCanaryPad; i++ {
		for _, v := range []complex128{backing[i], backing[len(backing)-1-i]} {
			if math.Float64bits(real(v)) != bits || math.Float64bits(imag(v)) != bits {
				t.Fatalf("%s: wrote outside the buffer", what)
			}
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d = %v, scalar body gives %v", what, i, got[i], want[i])
		}
	}
}

// laneButterflies lists the strided butterflies under one signature:
// radix r over w lanes, rows ds/ss apart, twiddles tw[0..r-2].
var laneButterflies = []struct {
	name string
	r    int
	run  func(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, tw []complex128, inverse bool)
}{
	{"Bfly2Lanes", 2, func(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, tw []complex128, _ bool) {
		Bfly2Lanes(tier, dst, ds, src, ss, w, tw[0])
	}},
	{"Bfly3Lanes", 3, func(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, tw []complex128, inverse bool) {
		Bfly3Lanes(tier, dst, ds, src, ss, w, tw[0], tw[1], inverse)
	}},
	{"Bfly5Lanes", 5, func(_ SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, tw []complex128, inverse bool) {
		Bfly5Lanes(dst, ds, src, ss, w, (*[4]complex128)(tw), inverse)
	}},
	{"DFT8Lanes", 8, func(tier SIMDTier, dst []complex128, ds int, src []complex128, ss, w int, _ []complex128, inverse bool) {
		DFT8Lanes(tier, dst, ds, src, ss, w, inverse)
	}},
}

func TestLaneButterfliesBoundsTiersAndDFT(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for _, bf := range laneButterflies {
		for w := 1; w <= 25; w++ {
			for _, pad := range []int{0, 3} {
				for _, inverse := range []bool{false, true} {
					what := fmt.Sprintf("%s w=%d pad=%d inverse=%v", bf.name, w, pad, inverse)
					r, ss, ds := bf.r, w+pad, w+2*pad
					tw := make([]complex128, r-1)
					for j := range tw {
						tw[j] = 1
						if r != 8 {
							tw[j] = unit(0.37 * float64(j+1))
						}
					}
					in := randComplexes(rnd, (r-1)*ss+w)

					// Scalar body out of place is the reference.
					want := make([]complex128, (r-1)*ds+w)
					bf.run(SIMDScalar, want, ds, in, ss, w, tw, inverse)

					// It computes the twiddled r-point DFT of every lane.
					sign := -1.0
					if inverse {
						sign = 1
					}
					for i := 0; i < w; i++ {
						for k := 0; k < r; k++ {
							var sum complex128
							for j := 0; j < r; j++ {
								v := in[j*ss+i]
								if j > 0 {
									v *= tw[j-1]
								}
								sum += v * unit(sign*2*math.Pi*float64(j*k)/float64(r))
							}
							if d := cmplxAbs(want[k*ds+i] - sum); d > 1e-13 {
								t.Fatalf("%s: lane %d output %d off the direct DFT by %g", what, i, k, d)
							}
						}
					}

					for _, tier := range execTiers() {
						what := fmt.Sprintf("%s tier=%v", what, tier)
						src, srcBack := fenced(in)
						dst, dstBack := fenced(make([]complex128, len(want)))
						bf.run(tier, dst, ds, src, ss, w, tw, inverse)
						for k := 0; k < r; k++ {
							requireSameBits(t, what, dst[k*ds:k*ds+w], want[k*ds:k*ds+w])
						}
						checkFence(t, what, dstBack)
						requireSameBits(t, what+" (source)", src, in)

						// In place, as the combine stages run it.
						bf.run(tier, src, ss, src, ss, w, tw, inverse)
						for k := 0; k < r; k++ {
							requireSameBits(t, what+" in place", src[k*ss:k*ss+w], want[k*ds:k*ds+w])
						}
						checkFence(t, what+" in place", srcBack)

					}
				}
			}
		}
	}
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// The last-stage forms: radix r over m butterflies and w lanes, each
// result row stored transposed or scaled (the factors swap on odd
// rows), bitwise the plain butterfly's outputs, out of place and (the
// scaled form, as a lone leaf runs it) in place, on every tier.
func TestLastStageFormsTiers(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	for _, r := range []int{3, 5} {
		for _, m := range []int{1, 2, 3, 8} {
			for w := 1; w <= 25; w++ {
				for _, inverse := range []bool{false, true} {
					what := fmt.Sprintf("radix %d m=%d w=%d inverse=%v", r, m, w, inverse)
					n, ss := r*m, w+1
					tw := make([]complex128, (r-1)*m)
					for j := range tw {
						tw[j] = unit(0.29 * float64(j+1))
					}
					in := randComplexes(rnd, (n-1)*ss+w)
					// Reference: the plain butterflies into a n x w matrix.
					ref := make([]complex128, n*w)
					for k := 0; k < m; k++ {
						if r == 3 {
							Bfly3Lanes(SIMDScalar, ref[k*w:], m*w, in[k*ss:], m*ss, w, tw[2*k], tw[2*k+1], inverse)
						} else {
							Bfly5Lanes(ref[k*w:], m*w, in[k*ss:], m*ss, w, (*[4]complex128)(tw[4*k:]), inverse)
						}
					}
					sc := [2]float64{0.25, -3}
					for _, tier := range execTiers() {
						what := fmt.Sprintf("%s tier=%v", what, tier)
						dl := n + 2
						tdst, tBack := fenced(make([]complex128, (w-1)*dl+n))
						src, srcBack := fenced(in)
						ds := w + 3
						sdst, sBack := fenced(make([]complex128, (n-1)*ds+w))
						if r == 3 {
							Bfly3StageT(tier, tdst, dl, src, ss, w, m, tw, inverse)
							Bfly3StageScaled(tier, sdst, ds, src, ss, w, m, tw, inverse, sc[0], sc[1])
						} else {
							Bfly5StageT(tdst, dl, src, ss, w, m, tw, inverse)
							Bfly5StageScaled(sdst, ds, src, ss, w, m, tw, inverse, sc[0], sc[1])
						}
						requireSameBits(t, what+" (source)", src, in)
						for q := 0; q < n; q++ {
							for i := 0; i < w; i++ {
								v, s := ref[q*w+i], sc[(q+i)&1]
								scaled := complex(s*real(v), s*imag(v))
								requireSameBits(t, what+" transposed", tdst[q+i*dl:q+i*dl+1], ref[q*w+i:q*w+i+1])
								requireSameBits(t, what+" scaled", sdst[q*ds+i:q*ds+i+1], []complex128{scaled})
							}
						}
						if r == 3 {
							Bfly3StageScaled(tier, src, ss, src, ss, w, m, tw, inverse, sc[0], sc[1])
						} else {
							Bfly5StageScaled(src, ss, src, ss, w, m, tw, inverse, sc[0], sc[1])
						}
						for q := 0; q < n; q++ {
							requireSameBits(t, what+" scaled in place", src[q*ss:q*ss+w], sdst[q*ds:q*ds+w])
						}
						for _, back := range [][]complex128{tBack, srcBack, sBack} {
							checkFence(t, what, back)
						}
					}
				}
			}
		}
	}
}

// R4ColsStage is R4ColsAt on every row quadruple of every stage, on
// every tier, for 1..25 lanes.
func TestR4ColsStageTiers(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	for _, n := range []int{4, 16, 64} {
		for h := 1; 4*h <= n; h *= 4 {
			tw1, tw2 := make([]complex128, h), make([]complex128, h)
			for j := range tw1 {
				tw1[j], tw2[j] = unit(-math.Pi*float64(j)/float64(2*h)), unit(-math.Pi*float64(j)/float64(4*h))
			}
			for w := 1; w <= 25; w++ {
				for _, inverse := range []bool{false, true} {
					in := randComplexes(rnd, n*w)
					want := append([]complex128(nil), in...)
					for base := 0; base < n; base += 4 * h {
						for tt := 0; tt < h; tt++ {
							j := (base + tt) * w
							R4ColsAt(SIMDScalar, want[j:j+w], want[j+h*w:j+h*w+w], want[j+2*h*w:j+2*h*w+w], want[j+3*h*w:j+3*h*w+w], tw1[tt], tw2[tt], inverse)
						}
					}
					for _, tier := range execTiers() {
						what := fmt.Sprintf("R4ColsStage n=%d h=%d w=%d inverse=%v tier=%v", n, h, w, inverse, tier)
						x, back := fenced(in)
						R4ColsStage(tier, x, n, h, w, tw1, tw2, inverse)
						requireSameBits(t, what, x, want)
						checkFence(t, what, back)
					}
				}
			}
		}
	}
}

func TestScaleLanesBoundsAndTiers(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	for w := 1; w <= 25; w++ {
		in := randComplexes(rnd, w)
		want := make([]complex128, w)
		for i, v := range in {
			s := 0.25
			if i&1 == 1 {
				s = -3
			}
			want[i] = complex(s*real(v), s*imag(v))
		}
		for _, tier := range execTiers() {
			src, _ := fenced(in)
			dst, back := fenced(make([]complex128, w))
			ScaleLanes(tier, dst, src, 0.25, -3)
			requireSameBits(t, fmt.Sprintf("ScaleLanes w=%d tier=%v", w, tier), dst, want)
			checkFence(t, "ScaleLanes", back)
		}
	}
}

func TestTransposeLanesBoundsAndTiers(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for na := 1; na <= 25; na += 3 {
		for nb := 1; nb <= 25; nb++ {
			for _, pad := range []int{0, 2} {
				for mode := 0; mode < 3; mode++ {
					ss, ds := na+pad, nb+2*pad
					in := randComplexes(rnd, (nb-1)*ss+na)
					checker, phase := mode > 0, mode-1
					for _, tier := range execTiers() {
						what := fmt.Sprintf("TransposeLanes %dx%d pad=%d mode=%d tier=%v", na, nb, pad, mode, tier)
						src, _ := fenced(in)
						zero := make([]complex128, (na-1)*ds+nb)
						dst, back := fenced(zero)
						TransposeLanes(tier, dst, ds, src, ss, na, nb, checker, phase)
						for a := 0; a < na; a++ {
							for b := 0; b < nb; b++ {
								want := in[b*ss+a]
								if checker && (a+b+phase)&1 == 1 {
									want = -want
								}
								if dst[a*ds+b] != want {
									t.Fatalf("%s: element (%d,%d) = %v, want %v", what, a, b, dst[a*ds+b], want)
								}
							}
							// The padding between destination rows stays untouched.
							for b := nb; b < ds && a*ds+b < len(dst); b++ {
								if dst[a*ds+b] != 0 {
									t.Fatalf("%s: wrote into row padding", what)
								}
							}
						}
						checkFence(t, what, back)
					}
				}
			}
		}
	}
}

// PermGather is the permuted copy (negated, and with the radix-2
// pairs formed, on request) on every tier, 1..25 elements (even counts
// with addSub), inside canaries.
func TestPermGatherTiers(t *testing.T) {
	rnd := rand.New(rand.NewSource(28))
	for n := 1; n <= 25; n++ {
		src := randComplexes(rnd, 2*n)
		perm := make([]int32, n)
		for i, p := range rnd.Perm(2 * n)[:n] {
			perm[i] = int32(p)
		}
		for _, neg := range []bool{false, true} {
			for _, addSub := range []bool{false, true} {
				if addSub && n%2 == 1 {
					continue
				}
				want := make([]complex128, n)
				for i, p := range perm {
					want[i] = src[p]
					if neg {
						want[i] = -want[i]
					}
				}
				if addSub {
					for i := 0; i < n; i += 2 {
						want[i], want[i+1] = want[i]+want[i+1], want[i]-want[i+1]
					}
				}
				for _, tier := range execTiers() {
					what := fmt.Sprintf("PermGather n=%d neg=%v addSub=%v tier=%v", n, neg, addSub, tier)
					s, _ := fenced(src)
					dst, back := fenced(make([]complex128, n))
					PermGather(tier, dst, s, perm, neg, addSub)
					requireSameBits(t, what, dst, want)
					requireSameBits(t, what+" (source)", s, src)
					checkFence(t, what, back)
				}
			}
		}
	}
}
