package dsp

// LinearResample resamples x to exactly n points using linear
// interpolation over the original index range. It returns a new slice when
// dst is too small.
func LinearResample(dst, x []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 || len(x) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	if len(x) == 1 {
		for i := range dst {
			dst[i] = x[0]
		}
		return dst
	}
	scale := float64(len(x)-1) / float64(max(n-1, 1))
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(x)-1 {
			dst[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		dst[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return dst
}
