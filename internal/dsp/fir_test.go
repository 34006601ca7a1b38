package dsp

import (
	"math"
	"testing"
)

// toneResponse measures the output/input amplitude ratio of filter f for a
// tone at freqHz.
func toneResponse(t *testing.T, f *FIR, freqHz, fs float64) float64 {
	t.Helper()
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freqHz * float64(i) / fs)
	}
	y := f.Apply(nil, x)
	// Skip the edges where the convolution is partial.
	m := len(f.Taps())
	return RMS(y[m:n-m]) / RMS(x[m:n-m])
}

func TestLowPassPassesAndStops(t *testing.T) {
	const fs = 100000.0
	f, err := NewLowPass(5000, fs, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneResponse(t, f, 1000, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain at 1 kHz = %g, want ~1", g)
	}
	if g := toneResponse(t, f, 25000, fs); g > 0.01 {
		t.Errorf("stopband gain at 25 kHz = %g, want < 0.01", g)
	}
}

func TestLowPassDCGain(t *testing.T) {
	f, err := NewLowPass(1000, 48000, 63, Hann)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, tap := range f.Taps() {
		sum += tap
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain = %g, want 1", sum)
	}
}

func TestLowPassRejectsBadParams(t *testing.T) {
	if _, err := NewLowPass(5000, 100000, 100, Hamming); err == nil {
		t.Error("even tap count accepted")
	}
	if _, err := NewLowPass(0, 100000, 101, Hamming); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := NewLowPass(60000, 100000, 101, Hamming); err == nil {
		t.Error("cutoff above Nyquist accepted")
	}
}

func TestBandPassSelectsBand(t *testing.T) {
	const fs = 1e6
	f, err := NewBandPass(90e3, 110e3, fs, 129, Blackman)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneResponse(t, f, 100e3, fs); math.Abs(g-1) > 0.1 {
		t.Errorf("center gain = %g, want ~1", g)
	}
	if g := toneResponse(t, f, 10e3, fs); g > 0.05 {
		t.Errorf("low-side rejection = %g, want < 0.05", g)
	}
	if g := toneResponse(t, f, 300e3, fs); g > 0.05 {
		t.Errorf("high-side rejection = %g, want < 0.05", g)
	}
}

func TestBandPassRejectsBadParams(t *testing.T) {
	if _, err := NewBandPass(0, 1000, 48000, 65, Hann); err == nil {
		t.Error("zero low edge accepted")
	}
	if _, err := NewBandPass(2000, 1000, 48000, 65, Hann); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := NewBandPass(1000, 30000, 48000, 65, Hann); err == nil {
		t.Error("band above Nyquist accepted")
	}
}

func TestApplyPreservesAlignment(t *testing.T) {
	// An impulse through a symmetric filter should stay centered.
	f, err := NewLowPass(1000, 8000, 31, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 101)
	x[50] = 1
	y := f.Apply(nil, x)
	if len(y) != len(x) {
		t.Fatalf("len(y) = %d, want %d", len(y), len(x))
	}
	i, _ := Argmax(y)
	if i != 50 {
		t.Errorf("impulse response peak at %d, want 50 (group delay not compensated)", i)
	}
}

func TestApplyComplexMatchesReal(t *testing.T) {
	f, err := NewLowPass(2000, 16000, 21, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(3, 4)
	x := make([]float64, 64)
	xc := make([]complex128, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
		xc[i] = complex(x[i], 0)
	}
	yr := f.Apply(nil, x)
	yc := f.ApplyComplex(nil, xc)
	for i := range yr {
		if math.Abs(yr[i]-real(yc[i])) > 1e-12 || math.Abs(imag(yc[i])) > 1e-12 {
			t.Fatalf("mismatch at %d: %g vs %v", i, yr[i], yc[i])
		}
	}
}

func TestMovingAverageConstant(t *testing.T) {
	x := make([]float64, 50)
	for i := range x {
		x[i] = 3.5
	}
	y := MovingAverage(nil, x, 7)
	for i, v := range y {
		if math.Abs(v-3.5) > 1e-12 {
			t.Fatalf("y[%d] = %g, want 3.5", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	rng := NewRand(5, 6)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := MovingAverage(nil, x, 21)
	if vy, vx := Variance(y), Variance(x); vy > vx/5 {
		t.Errorf("moving average variance %g not much below input %g", vy, vx)
	}
}

func TestMovingAverageDegenerateWidths(t *testing.T) {
	x := []float64{1, 2, 3}
	y := MovingAverage(nil, x, 0) // clamps to 1: identity
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("width-1 average changed data: %v", y)
		}
	}
	y = MovingAverage(nil, x, 100) // clamps to len(x)
	if len(y) != 3 {
		t.Fatalf("len = %d, want 3", len(y))
	}
}

func TestNewFIRCopiesTaps(t *testing.T) {
	taps := []float64{1, 2, 3}
	f := NewFIR(taps)
	taps[0] = 99
	if f.Taps()[0] != 1 {
		t.Error("NewFIR aliased caller's slice")
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d, want 3", f.Len())
	}
}

// refConvolve is the reference "same"-length convolution: every output at
// the full rate, each tap tested against the input bounds one by one.
func refConvolve(taps, x []float64) []float64 {
	y := make([]float64, len(x))
	half := len(taps) / 2
	for i := range y {
		acc := 0.0
		for k, tap := range taps {
			j := i + half - k
			if j < 0 || j >= len(x) {
				continue
			}
			acc += tap * x[j]
		}
		y[i] = acc
	}
	return y
}

// TestApplyStridedMatchesApply is the strided filter's oracle: for every
// stride a decimating caller uses, every offset, and every small input
// length (where the filter edges dominate), ApplyStrided must return
// exactly the full-rate reference's bits at offset, offset+stride, ... —
// and no more or fewer samples than that grid holds.
func TestApplyStridedMatchesApply(t *testing.T) {
	f, err := NewLowPass(12500, 400000, 63, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(3, 4)
	for n := 0; n <= 70; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		full := refConvolve(f.taps, x)
		if got := f.Apply(nil, x); !sameBits(got, full) {
			t.Fatalf("n=%d: Apply differs from the reference convolution", n)
		}
		for _, stride := range []int{1, 4, 16} {
			for offset := 0; offset <= stride; offset++ {
				var want []float64
				for i := offset; i < n; i += stride {
					want = append(want, full[i])
				}
				if got := f.ApplyStrided(nil, x, stride, offset); !sameBits(got, want) {
					t.Fatalf("n=%d stride=%d offset=%d: got %v, want %v", n, stride, offset, got, want)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestApplyStridedIdentity drives the strided filter with a single unit
// tap, which makes it a pure sample-and-hold: the sampler grid of the
// receiver (Oversample/2 + k*Oversample) read off the input unchanged.
func TestApplyStridedIdentity(t *testing.T) {
	id := NewFIR([]float64{1})
	ramp := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		return x
	}
	inf := math.Inf(1)
	cases := []struct {
		name           string
		x              []float64
		stride, offset int
		want           []float64
	}{
		{"decimate by 4 mid-window", ramp(16), 4, 2, []float64{2, 6, 10, 14}},
		{"empty input", nil, 4, 2, nil},
		{"shorter than the first sample point", ramp(2), 4, 2, nil},
		{"single sample at the trigger point", []float64{0, 0, 7}, 4, 2, []float64{7}},
		{"unity stride is the identity", []float64{1, 2, 3}, 1, 0, []float64{1, 2, 3}},
		{"full-scale values pass untouched", []float64{0, 0, inf, 0, 0, 0, -1e308, 0}, 4, 2, []float64{inf, -1e308}},
	}
	for _, c := range cases {
		if got := id.ApplyStrided(nil, c.x, c.stride, c.offset); !sameBits(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDecimate checks decimation — the strided filter with a unit tap —
// keeps every stride-th sample from the offset on.
func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	y := NewFIR([]float64{1}).ApplyStrided(nil, x, 3, 1)
	want := []float64{1, 4, 7}
	if len(y) != len(want) {
		t.Fatalf("len = %d, want %d", len(y), len(want))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

// TestDecimateDegenerate checks the grid edges: an offset past the end
// yields nothing, and a stride below one or a negative offset is a caller
// bug that panics instead of being clamped into some other grid.
func TestDecimateDegenerate(t *testing.T) {
	id := NewFIR([]float64{1})
	x := []float64{1, 2, 3}
	if y := id.ApplyStrided(nil, x, 2, 10); len(y) != 0 {
		t.Errorf("offset beyond end: len = %d, want 0", len(y))
	}
	for _, g := range []struct{ stride, offset int }{{0, 0}, {-3, 0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stride %d offset %d accepted", g.stride, g.offset)
				}
			}()
			id.ApplyStrided(nil, x, g.stride, g.offset)
		}()
	}
}

// TestFilterRejectsOverlap pins that no filter call can convolve in place:
// a dst sharing any memory with x — the same window, a shifted one, or a
// single element — panics, while neighbouring windows of one backing
// array are fine. Every window is 8 samples, so dst is written in place
// rather than reallocated.
func TestFilterRejectsOverlap(t *testing.T) {
	f := NewFIR([]float64{0.25, 0.5, 0.25})
	buf := make([]float64, 32)
	cbuf := make([]complex128, 32)
	cases := []struct {
		name     string
		dst, x   int // start of each 8-sample window
		overlaps bool
	}{
		{"full overlap", 0, 0, true},
		{"dst shifted into x", 4, 0, true},
		{"x shifted into dst", 0, 5, true},
		{"one shared element", 7, 0, true},
		{"adjacent windows", 8, 0, false},
		{"disjoint windows", 0, 20, false},
	}
	for _, c := range cases {
		calls := map[string]func(){
			"ApplyStrided": func() { f.ApplyStrided(buf[c.dst:c.dst+8], buf[c.x:c.x+8], 1, 0) },
			"ApplyComplex": func() { f.ApplyComplex(cbuf[c.dst:c.dst+8], cbuf[c.x:c.x+8]) },
		}
		for name, call := range calls {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				call()
				return false
			}()
			if panicked != c.overlaps {
				t.Errorf("%s %s: panicked=%v, want %v", name, c.name, panicked, c.overlaps)
			}
		}
	}
}
