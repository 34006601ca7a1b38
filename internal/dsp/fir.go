package dsp

import (
	"fmt"
	"math"
	"unsafe"
)

// FIR is a finite-impulse-response filter. The zero value is unusable; build
// one with NewLowPass, NewBandPass, or NewFIR. FIR values are safe for
// concurrent use because filtering via Apply is stateless.
type FIR struct {
	taps []float64
}

// NewFIR wraps an explicit tap vector as a filter. The taps are copied.
func NewFIR(taps []float64) *FIR {
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t}
}

// NewLowPass designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz), sampling rate (Hz), and odd tap count. It returns an error
// for invalid parameters rather than clamping silently.
func NewLowPass(cutoffHz, sampleRateHz float64, taps int, w Window) (*FIR, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: low-pass needs an odd tap count >= 3, got %d", taps)
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz outside (0, fs/2) for fs=%g Hz", cutoffHz, sampleRateHz)
	}
	fc := cutoffHz / sampleRateHz // normalized cutoff in cycles/sample
	mid := taps / 2
	win := w.Make(taps)
	h := make([]float64, taps)
	sum := 0.0
	for i := range h {
		h[i] = 2 * fc * Sinc(2*fc*float64(i-mid)) * win[i]
		sum += h[i]
	}
	// Normalize to unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return &FIR{taps: h}, nil
}

// NewBandPass designs a windowed-sinc band-pass filter passing
// [lowHz, highHz]. Tap count must be odd.
func NewBandPass(lowHz, highHz, sampleRateHz float64, taps int, w Window) (*FIR, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: band-pass needs an odd tap count >= 3, got %d", taps)
	}
	if lowHz <= 0 || highHz <= lowHz || highHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("dsp: band [%g, %g] Hz invalid for fs=%g Hz", lowHz, highHz, sampleRateHz)
	}
	fl := lowHz / sampleRateHz
	fh := highHz / sampleRateHz
	mid := taps / 2
	win := w.Make(taps)
	h := make([]float64, taps)
	for i := range h {
		k := float64(i - mid)
		h[i] = (2*fh*Sinc(2*fh*k) - 2*fl*Sinc(2*fl*k)) * win[i]
	}
	// Normalize so the gain at the band center is unity.
	fc := (fl + fh) / 2
	var gr, gi float64
	for i, tap := range h {
		ang := 2 * math.Pi * fc * float64(i)
		gr += tap * math.Cos(ang)
		gi -= tap * math.Sin(ang)
	}
	g := math.Hypot(gr, gi)
	if g == 0 {
		return nil, fmt.Errorf("dsp: degenerate band-pass design")
	}
	for i := range h {
		h[i] /= g
	}
	return &FIR{taps: h}, nil
}

// Taps returns a copy of the filter coefficients.
func (f *FIR) Taps() []float64 {
	t := make([]float64, len(f.taps))
	copy(t, f.taps)
	return t
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.taps) }

// Apply convolves x with the filter and writes the "same"-length result into
// dst (allocated or grown as needed), compensating for the filter's group
// delay so features in the output stay aligned with the input. It returns
// dst. dst must not overlap x.
func (f *FIR) Apply(dst, x []float64) []float64 { return f.ApplyStrided(dst, x, 1, 0) }

// ApplyStrided is Apply evaluated only at the output indices offset,
// offset+stride, offset+2*stride, ... below len(x): it writes those outputs,
// in order, into dst (allocated or grown as needed) and returns dst. Each
// output is accumulated exactly as Apply accumulates it, so a decimating
// caller gets Apply's bits at the indices it keeps without paying for the
// ones it drops. It panics if stride < 1, offset < 0, or dst overlaps x.
func (f *FIR) ApplyStrided(dst, x []float64, stride, offset int) []float64 {
	if stride < 1 || offset < 0 {
		panic(fmt.Sprintf("dsp: FIR output grid stride %d offset %d", stride, offset))
	}
	n := len(x)
	m := 0
	if offset < n {
		m = (n - offset + stride - 1) / stride
	}
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	mustNotOverlap(dst, x)
	half := len(f.taps) / 2
	for o := range dst {
		// y[i] = sum_k h[k] * x[i + half - k], over the taps whose input
		// index lies inside x, in ascending k.
		i := offset + o*stride
		lo, hi := max(0, i+half-n+1), min(len(f.taps), i+half+1)
		acc := 0.0
		for k := lo; k < hi; k++ {
			acc += f.taps[k] * x[i+half-k]
		}
		dst[o] = acc
	}
	return dst
}

// ApplyComplex is Apply for complex-valued series.
func (f *FIR) ApplyComplex(dst, x []complex128) []complex128 {
	n := len(x)
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	mustNotOverlap(dst, x)
	half := len(f.taps) / 2
	for i := range dst {
		lo, hi := max(0, i+half-n+1), min(len(f.taps), i+half+1)
		var acc complex128
		for k := lo; k < hi; k++ {
			acc += complex(f.taps[k], 0) * x[i+half-k]
		}
		dst[i] = acc
	}
	return dst
}

// mustNotOverlap panics when dst and x share memory. A convolution reads
// inputs after it has written outputs, so an in-place or shifted-overlap
// call would silently filter its own output.
func mustNotOverlap[T float64 | complex128](dst, x []T) {
	if len(dst) == 0 || len(x) == 0 {
		return
	}
	d0, d1 := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&dst[len(dst)-1]))
	x0, x1 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&x[len(x)-1]))
	if d0 <= x1 && x0 <= d1 {
		panic("dsp: FIR output dst overlaps its input x")
	}
}

// MovingAverage computes a centered moving average of width w over x into
// dst and returns dst. Width is clamped to [1, len(x)]. Edge windows shrink
// symmetrically, so the output has no startup bias.
func MovingAverage(dst, x []float64, w int) []float64 {
	n := len(x)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	half := w / 2
	// Prefix sums for O(n) averaging.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		dst[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return dst
}
