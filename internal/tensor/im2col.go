package tensor

// validSpan returns the output indices [lo, hi) of one convolution axis
// whose tap o*stride - pad + k lands inside [0, n), for o in [0, out). The
// span is empty (lo == hi) when a tap misses the input for every output.
func validSpan(n, out, k, stride, pad int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	if e := n + pad - k; e > 0 {
		hi = (e + stride - 1) / stride
	}
	if hi > out {
		hi = out
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Im2Col lowers a single image (C×H×W, flat row-major in src) into a column
// matrix of shape (C*kh*kw) × (outH*outW) stored flat row-major in dst, so a
// convolution becomes one GEMM: weights (outC × C*kh*kw) times columns.
// Out-of-bounds taps (from padding) contribute zeros.
//
// Each (c, ky, kx) row is built from runs: the bounds are solved once per
// row (validSpan), so every output row is its zero edges plus one copy or
// strided gather. With unit strides and outW == width the valid rows are
// one contiguous run of the input plane, copied flat before the wrapped
// edge cells are zeroed.
func Im2Col(src []float32, channels, height, width, kh, kw, strideH, strideW, padH, padW int, dst []float32) (outH, outW int) {
	outH = (height+2*padH-kh)/strideH + 1
	outW = (width+2*padW-kw)/strideW + 1
	cols := outH * outW
	flat := strideH == 1 && strideW == 1 && outW == width
	row := 0
	for c := 0; c < channels; c++ {
		plane := src[c*height*width : (c+1)*height*width]
		for ky := 0; ky < kh; ky++ {
			ylo, yhi := validSpan(height, outH, ky, strideH, padH)
			for kx := 0; kx < kw; kx++ {
				drow := dst[row*cols : (row+1)*cols]
				row++
				xlo, xhi := validSpan(width, outW, kx, strideW, padW)
				if xlo == xhi || ylo == yhi {
					clear(drow)
					continue
				}
				clear(drow[:ylo*outW])
				clear(drow[yhi*outW:])
				if flat {
					// drow[j] = plane[j+off] for every valid cell; the
					// cells between runs pick up neighbouring input rows
					// and are zeroed below.
					off := (ky-padH)*width + kx - padW
					first, last := ylo*outW+xlo, (yhi-1)*outW+xhi
					copy(drow[first:last], plane[first+off:last+off])
				}
				for oy := ylo; oy < yhi; oy++ {
					r := drow[oy*outW : (oy+1)*outW]
					clear(r[:xlo])
					clear(r[xhi:])
					if flat {
						continue
					}
					ix := (oy*strideH-padH+ky)*width + xlo*strideW - padW + kx
					run := r[xlo:xhi]
					if strideW == 1 {
						copy(run, plane[ix:ix+len(run)])
						continue
					}
					for j := range run {
						run[j] = plane[ix]
						ix += strideW
					}
				}
			}
		}
	}
	return outH, outW
}

// Col2Im is the adjoint of Im2Col: it scatters-and-accumulates the column
// matrix back into an image gradient of shape C×H×W (dst is NOT zeroed first;
// callers zero it when they want a pure adjoint). Rows are visited in
// ascending (c, ky, kx) order and each row adds at most once into any cell,
// so every cell receives its adds in the same order as a per-element scan.
func Col2Im(cols []float32, channels, height, width, kh, kw, strideH, strideW, padH, padW int, dst []float32) {
	outH := (height+2*padH-kh)/strideH + 1
	outW := (width+2*padW-kw)/strideW + 1
	n := outH * outW
	row := 0
	for c := 0; c < channels; c++ {
		plane := dst[c*height*width : (c+1)*height*width]
		for ky := 0; ky < kh; ky++ {
			ylo, yhi := validSpan(height, outH, ky, strideH, padH)
			for kx := 0; kx < kw; kx++ {
				srow := cols[row*n : (row+1)*n]
				row++
				xlo, xhi := validSpan(width, outW, kx, strideW, padW)
				if xlo == xhi {
					continue
				}
				for oy := ylo; oy < yhi; oy++ {
					run := srow[oy*outW+xlo : oy*outW+xhi]
					ix := (oy*strideH-padH+ky)*width + xlo*strideW - padW + kx
					if strideW == 1 {
						p := plane[ix : ix+len(run)]
						for j, v := range run {
							p[j] += v
						}
						continue
					}
					for _, v := range run {
						plane[ix] += v
						ix += strideW
					}
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution/pooling with
// the given geometry.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
