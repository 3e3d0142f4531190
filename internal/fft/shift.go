package fft

// The IDG subgrids are images whose center pixel (N/2, N/2) is the
// phase center, while the DFT convention puts the zero frequency at
// index 0. The centered transforms below absorb the required
// fftshift/ifftshift pairs so that both the image-domain and the
// uv-domain arrays keep "DC in the middle", which is the layout the
// gridder, adder and splitter use.

// Shift performs an fftshift of x in place: it rotates the data right
// by floor(n/2) (equivalently left by ceil(n/2)), moving the
// zero-frequency element to index n/2.
func Shift(x []complex128) {
	rotate(x, (len(x)+1)/2)
}

// InverseShift performs an ifftshift in place: it rotates the data left
// by floor(n/2), undoing Shift for any length.
func InverseShift(x []complex128) {
	rotate(x, len(x)/2)
}

// rotate rotates x left by k positions using the three-reversal trick.
func rotate(x []complex128, k int) {
	n := len(x)
	if n == 0 {
		return
	}
	k %= n
	if k == 0 {
		return
	}
	reverse(x[:k])
	reverse(x[k:])
	reverse(x)
}

func reverse(x []complex128) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}

// Shift2D applies fftshift along both axes of a rows x cols row-major
// array.
func Shift2D(x []complex128, rows, cols int) {
	shift2D(x, rows, cols, false)
}

// InverseShift2D applies ifftshift along both axes.
func InverseShift2D(x []complex128, rows, cols int) {
	shift2D(x, rows, cols, true)
}

func shift2D(x []complex128, rows, cols int, inverse bool) {
	if len(x) != rows*cols {
		panic("fft: shift2D size mismatch")
	}
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		if inverse {
			InverseShift(row)
		} else {
			Shift(row)
		}
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = x[r*cols+c]
		}
		if inverse {
			InverseShift(col)
		} else {
			Shift(col)
		}
		for r := 0; r < rows; r++ {
			x[r*cols+c] = col[r]
		}
	}
}

// ForwardCentered computes the centered forward 2-D transform:
// fftshift(FFT(ifftshift(x))). Both input and output have DC at
// (rows/2, cols/2). This is the image-domain -> uv-domain direction
// used after the gridder kernel.
//
// For even sizes the shifts are fused into the transform: for even n,
// fftshift∘F∘ifftshift = sigma·D·F·D with D = diag((-1)^j) and
// sigma = (-1)^(n/2), so in 2-D the whole centering collapses to a
// (-1)^(r+c) input checkerboard (folded into the row pass and the
// column gather), a (-1)^(k+l)·sigma output checkerboard (folded into
// the column scatter), and no rotate passes at all. Odd sizes keep the
// explicit three-reversal rotates.
func (p *Plan2D) ForwardCentered(x []complex128) {
	p.checkLen(x)
	if p.fusedOK {
		p.runSerial(x, false, true, p.sigma)
		return
	}
	InverseShift2D(x, p.rows, p.cols)
	p.runSerial(x, false, false, 1)
	Shift2D(x, p.rows, p.cols)
}

// InverseCentered computes fftshift(IFFT(ifftshift(x))), the
// uv-domain -> image-domain direction used before the degridder kernel
// and for turning the final grid into a sky image.
func (p *Plan2D) InverseCentered(x []complex128) {
	p.checkLen(x)
	scale := 1 / float64(p.rows*p.cols)
	if p.fusedOK {
		p.runSerial(x, true, true, p.sigma*scale)
		return
	}
	InverseShift2D(x, p.rows, p.cols)
	p.runSerial(x, true, false, scale)
	Shift2D(x, p.rows, p.cols)
}

// ForwardCenteredParallel is ForwardCentered with a parallel core
// transform, from src into dst. dst may be src (in place); otherwise
// src is left untouched and the row pass brings each row block over as
// it transforms it, so a caller that wants a transformed copy does not
// pay a separate copy pass. The output bits do not depend on which.
func (p *Plan2D) ForwardCenteredParallel(dst, src []complex128, workers int) {
	p.checkLen(dst)
	p.checkLen(src)
	if p.fusedOK {
		p.runParallel(dst, src, false, true, p.sigma, workers)
		return
	}
	copy(dst, src)
	InverseShift2D(dst, p.rows, p.cols)
	p.runParallel(dst, dst, false, false, 1, workers)
	Shift2D(dst, p.rows, p.cols)
}

// InverseCenteredParallel is the parallel variant of InverseCentered,
// from src into dst like ForwardCenteredParallel.
func (p *Plan2D) InverseCenteredParallel(dst, src []complex128, workers int) {
	p.checkLen(dst)
	p.checkLen(src)
	scale := 1 / float64(p.rows*p.cols)
	if p.fusedOK {
		p.runParallel(dst, src, true, true, p.sigma*scale, workers)
		return
	}
	copy(dst, src)
	InverseShift2D(dst, p.rows, p.cols)
	p.runParallel(dst, dst, true, false, scale, workers)
	Shift2D(dst, p.rows, p.cols)
}
