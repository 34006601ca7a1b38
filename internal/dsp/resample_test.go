package dsp

import (
	"math"
	"testing"
)

func TestLinearResampleEndpoints(t *testing.T) {
	x := []float64{0, 10, 20, 30}
	y := LinearResample(nil, x, 7)
	if y[0] != 0 || y[6] != 30 {
		t.Fatalf("endpoints %g, %g; want 0, 30", y[0], y[6])
	}
	// Midpoint of the resampled grid lands on the midpoint of the data.
	if math.Abs(y[3]-15) > 1e-12 {
		t.Errorf("midpoint = %g, want 15", y[3])
	}
}

func TestLinearResampleDegenerate(t *testing.T) {
	if y := LinearResample(nil, nil, 4); len(y) != 4 {
		t.Fatalf("len = %d, want 4", len(y))
	}
	y := LinearResample(nil, []float64{7}, 3)
	for _, v := range y {
		if v != 7 {
			t.Fatalf("constant input not preserved: %v", y)
		}
	}
	if y := LinearResample(nil, []float64{1, 2}, 0); len(y) != 0 {
		t.Fatalf("n=0: len = %d, want 0", len(y))
	}
}

func TestWindowsBasics(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		if w.String() == "unknown" {
			t.Errorf("window %d has no name", w)
		}
		coef := w.Make(33)
		// Symmetry.
		for i := 0; i < len(coef)/2; i++ {
			if math.Abs(coef[i]-coef[len(coef)-1-i]) > 1e-12 {
				t.Errorf("%s not symmetric at %d", w, i)
			}
		}
		// Peak at center, non-negative.
		mid := coef[len(coef)/2]
		for i, v := range coef {
			if v < -1e-12 {
				t.Errorf("%s[%d] negative: %g", w, i, v)
			}
			if v > mid+1e-12 {
				t.Errorf("%s[%d]=%g exceeds center %g", w, i, v, mid)
			}
		}
	}
	if len(Hann.Make(0)) != 0 {
		t.Error("zero-length window should be empty")
	}
	if one := Hann.Make(1); one[0] != 1 {
		t.Error("length-1 window should be [1]")
	}
	if Window(99).String() != "unknown" {
		t.Error("unknown window should stringify as unknown")
	}
}
