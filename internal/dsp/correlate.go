package dsp

import "math"

// CrossCorrelate computes the sliding dot product of template h against x at
// every lag where h fits entirely inside x ("valid" mode). The result has
// len(x)-len(h)+1 entries; it is empty if h is longer than x. dst is reused
// when large enough.
func CrossCorrelate(dst, x, h []float64) []float64 {
	n := len(x) - len(h) + 1
	if n <= 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for lag := 0; lag < n; lag++ {
		acc := 0.0
		seg := x[lag : lag+len(h)]
		for i, hv := range h {
			acc += hv * seg[i]
		}
		dst[lag] = acc
	}
	return dst
}

// NormalizedCrossCorrelate computes the normalized cross-correlation
// (cosine similarity of the zero-mean template with each zero-mean window of
// x), yielding values in [-1, 1]. Windows with zero variance correlate to 0.
func NormalizedCrossCorrelate(dst, x, h []float64) []float64 {
	n := len(x) - len(h) + 1
	if n <= 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	m := len(h)
	hm := Mean(h)
	// The template is centered on the fly, h[i]-hm, in both the energy and
	// the dot product, so the correlation needs no buffer of its own.
	var hEnergy float64
	for _, v := range h {
		c := v - hm
		hEnergy += c * c
	}
	if hEnergy == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	hNorm := math.Sqrt(hEnergy)
	// Sliding sums for the window mean and energy.
	var sum, sumSq float64
	for _, v := range x[:m] {
		sum += v
		sumSq += v * v
	}
	for lag := 0; lag < n; lag++ {
		if lag > 0 {
			out := x[lag-1]
			in := x[lag+m-1]
			sum += in - out
			sumSq += in*in - out*out
		}
		mean := sum / float64(m)
		energy := sumSq - float64(m)*mean*mean
		if energy <= 0 {
			dst[lag] = 0
			continue
		}
		var dot float64
		seg := x[lag : lag+m]
		for i, hv := range h {
			dot += (hv - hm) * seg[i]
		}
		dst[lag] = dot / (hNorm * math.Sqrt(energy))
	}
	return dst
}

// FFTCorrelate computes the same valid-mode correlation as CrossCorrelate
// but via the FFT, which is faster when len(h) is large. The two functions
// agree to floating-point tolerance.
func FFTCorrelate(dst, x, h []float64) []float64 {
	nOut := len(x) - len(h) + 1
	if nOut <= 0 {
		return dst[:0]
	}
	size := NextPow2(len(x) + len(h))
	a := make([]complex128, size)
	b := make([]complex128, size)
	for i, v := range x {
		a[i] = complex(v, 0)
	}
	// Correlation = convolution with the reversed template.
	for i, v := range h {
		b[len(h)-1-i] = complex(v, 0)
	}
	FFT(a)
	FFT(b)
	for i := range a {
		a[i] *= b[i]
	}
	IFFT(a)
	if cap(dst) < nOut {
		dst = make([]float64, nOut)
	}
	dst = dst[:nOut]
	for i := 0; i < nOut; i++ {
		dst[i] = real(a[i+len(h)-1])
	}
	return dst
}

// Argmax returns the index and value of the maximum element of x, or (-1, 0)
// if x is empty. Ties resolve to the earliest index.
func Argmax(x []float64) (int, float64) {
	if len(x) == 0 {
		return -1, 0
	}
	best, bestV := 0, x[0]
	for i, v := range x[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best, bestV
}

// Argmin returns the index and value of the minimum element of x, or (-1, 0)
// if x is empty.
func Argmin(x []float64) (int, float64) {
	if len(x) == 0 {
		return -1, 0
	}
	best, bestV := 0, x[0]
	for i, v := range x[1:] {
		if v < bestV {
			best, bestV = i+1, v
		}
	}
	return best, bestV
}
