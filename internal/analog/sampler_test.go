package analog_test

import (
	"math"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
)

// The proactive voltage sampler of Section 2.3 has no type of its own: the
// receiver samples by evaluating its video low-pass filter only where the
// sampler reads it (core.Demodulator.Render on the grid SimIndex states,
// through dsp.FIR.ApplyStrided). These tests pin the sampler's contract at
// that seam — a sample-and-hold firing mid-way through every
// Oversample-long window, with well-defined edges.

func samplerDemod(t *testing.T, mode core.Mode, ovs, corr int) *core.Demodulator {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Oversample = ovs
	cfg.CorrOversample = corr
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hold is the sampler with the video filter taken out: a unit tap read on
// the receiver's sampler grid.
func hold(d *core.Demodulator, x []float64) []float64 {
	return dsp.NewFIR([]float64{1}).ApplyStrided(nil, x, d.Config().Oversample, d.SimIndex(0))
}

// rendered returns the sampler- and correlator-rate stream lengths the
// receiver produces from n simulation samples.
func rendered(d *core.Demodulator, n int) (int, int) {
	env, envC := d.Render(nil, nil, make([]float64, n), nil)
	return len(env), len(envC)
}

func TestSamplerDecimation(t *testing.T) {
	d := samplerDemod(t, core.ModeVanilla, 4, 1)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	y := hold(d, x)
	want := []float64{2, 6, 10, 14}
	if len(y) != len(want) {
		t.Fatalf("len = %d, want %d", len(y), len(want))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	if n, _ := rendered(d, 16); n != 4 {
		t.Errorf("rendered 16 samples to %d, want 4", n)
	}
	if n, _ := rendered(d, 1); n != 0 {
		t.Errorf("rendered 1 sample to %d, want 0", n)
	}
	// A comparator edge at simulation index 6 lands on sampler sample 1.
	if k := d.SamplerIndex(6); k != 1 || d.SimIndex(k) != 6 {
		t.Errorf("SamplerIndex(6) = %d reading %d, want 1 reading 6", k, d.SimIndex(k))
	}
}

func TestSamplerEdges(t *testing.T) {
	d := samplerDemod(t, core.ModeVanilla, 4, 1)

	if got := hold(d, nil); len(got) != 0 {
		t.Errorf("empty input produced %d samples", len(got))
	}
	// Inputs shorter than the first sample point (mid-window trigger at
	// Oversample/2) produce nothing — and the rendered stream agrees.
	for n := 0; n < 2; n++ {
		if got := hold(d, make([]float64, n)); len(got) != 0 {
			t.Errorf("%d-sample input produced %v", n, got)
		}
		if got, _ := rendered(d, n); got != 0 {
			t.Errorf("rendered %d samples to %d, want 0", n, got)
		}
	}
	// A single sample at the trigger point is captured.
	if got := hold(d, []float64{0, 0, 7}); len(got) != 1 || got[0] != 7 {
		t.Errorf("trigger-point capture = %v, want [7]", got)
	}

	// Unity decimation is the identity: a correlator as fast as the
	// simulation reads every sample.
	full := samplerDemod(t, core.ModeFull, 4, 4)
	for n := 0; n <= 3; n++ {
		if _, got := rendered(full, n); got != n {
			t.Errorf("unity correlator rendered %d samples to %d", n, got)
		}
	}

	// Saturating values pass through untouched: the sampler is a switch,
	// not a converter — clipping is the downstream ADC's job.
	got := hold(d, []float64{0, 0, math.Inf(1), 0, 0, 0, -1e308, 0})
	if len(got) != 2 || !math.IsInf(got[0], 1) || got[1] != -1e308 {
		t.Errorf("full-scale passthrough = %v", got)
	}
}

func TestNewSamplerRejectsZero(t *testing.T) {
	// A zero-stride sampler grid is a caller bug the filter refuses.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero stride accepted")
			}
		}()
		dsp.NewFIR([]float64{1}).ApplyStrided(nil, []float64{1, 2, 3}, 0, 0)
	}()
	// The receiver never builds one: a zero Oversample takes the default,
	// and a sampler reading every simulation sample or fewer is rejected.
	cfg := core.DefaultConfig()
	cfg.Oversample = 0
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Config().Oversample < 2 {
		t.Errorf("zero oversample became %d", d.Config().Oversample)
	}
	for _, ovs := range []int{1, -3} {
		cfg.Oversample = ovs
		if _, err := core.New(cfg); err == nil {
			t.Errorf("oversample %d accepted", ovs)
		}
	}
}
