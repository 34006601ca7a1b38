package analog

import (
	"math"
	"math/rand/v2"

	"saiyan/internal/dsp"
)

// EnvelopeDetector is a square-law detector: y = k*|x|^2 for the RF complex
// envelope x. Squaring reproduces the paper's Eq. (4) exactly: the output
// contains the desired |s|^2 term plus 2*Re(s*conj(n)) signal-noise mixing
// and |n|^2 noise self-mixing, which is why weak signals suffer
// disproportionately (the 30 dB sensitivity penalty of envelope-detection
// receivers [27]).
//
// On top of the squaring, physical detectors add baseband impairments that
// only exist *after* down-conversion: a DC offset and 1/f flicker noise.
// The cyclic-frequency-shifting circuit exists to escape them (Section 3.1).
type EnvelopeDetector struct {
	ScaleK float64 // attenuation factor k of Eq. (4)

	// Baseband impairments, in normalized envelope units (the RF noise at
	// the detector input has unit power, so |n|^2 averages 1).
	DCOffset      float64
	FlickerSigma  float64 // std dev of added 1/f noise
	BasebandSigma float64 // extra white baseband noise (video resistor etc.)

	// FlickerCornerHz is the pole above which the flicker spectrum falls
	// off faster than 1/f (one extra pole). Detector flicker and bias
	// drift concentrate at low frequency; the corner controls how much
	// leaks into the intermediate-frequency band and therefore how much of
	// the paper's 11 dB cyclic-frequency-shifting gain is achievable.
	FlickerCornerHz float64
}

// DefaultEnvelopeDetector returns the calibrated detector model. The
// flicker and DC terms are set so the vanilla chain loses ~11 dB of
// effective SNR versus the cyclic-frequency-shifted chain, matching the
// paper's measured gain (the IF band-pass filter passes only the small 1/f
// tail that falls inside the IF band).
func DefaultEnvelopeDetector() EnvelopeDetector {
	return EnvelopeDetector{
		ScaleK:          1,
		DCOffset:        150,
		FlickerSigma:    160,
		BasebandSigma:   1.5,
		FlickerCornerHz: 30e3,
	}
}

// Detect runs the RF half of the chain over the real antenna signal x in
// one pass, in place. The antenna signal is real until front-end noise is
// added, so the complex envelope only exists inside the loop: per sample it
// adds unit-power circularly symmetric complex noise when rng is non-nil
// (the real draw, then the imaginary one), multiplies both parts by the
// input clock tone cos(2*pi*clockHz*i/sampleRate) of the
// cyclic-frequency-shifting circuit when clockHz is non-zero (a zero clock
// is a constant 1, no mixer), and writes the square-law output k*|x|^2 back
// into x. Baseband impairments are not added; the caller decides whether
// the signal has been shifted away from DC first.
func (e EnvelopeDetector) Detect(x []float64, clockHz, sampleRate float64, rng *rand.Rand) {
	k := e.ScaleK
	if k == 0 {
		k = 1
	}
	sigma := math.Sqrt(0.5)
	w := 2 * math.Pi * clockHz / sampleRate
	for i, re := range x {
		var im float64
		if rng != nil {
			re += sigma * rng.NormFloat64()
			im = sigma * rng.NormFloat64()
		}
		if clockHz != 0 {
			c := math.Cos(w * float64(i))
			re *= c
			im *= c
		}
		x[i] = k * (re*re + im*im)
	}
}

// AddBasebandImpairments adds the DC offset, flicker noise, and white
// baseband noise to an envelope series (sampled at sampleRateHz) in place.
// Call it after Detect; the super-Saiyan chain applies it before the IF
// band-pass filter, which then strips most of it — exactly the mechanism of
// Figure 9. The flicker noise is generated in pink, a caller-owned scratch
// buffer grown as needed (nil allocates one); the buffer is returned so the
// caller can reuse it, and its contents are garbage afterwards.
func (e EnvelopeDetector) AddBasebandImpairments(y []float64, sampleRateHz float64, rng *rand.Rand, pink []float64) []float64 {
	if e.FlickerSigma > 0 {
		if cap(pink) < len(y) {
			pink = make([]float64, len(y))
		}
		pink = dsp.PinkNoise(pink[:len(y)], rng)
		if e.FlickerCornerHz > 0 && sampleRateHz > 2*e.FlickerCornerHz {
			// One-pole roll-off above the flicker corner, renormalized so
			// the total sigma stays at the configured value (the corner
			// reshapes the spectrum, it does not remove noise power).
			alpha := math.Exp(-2 * math.Pi * e.FlickerCornerHz / sampleRateHz)
			state := 0.0
			for i, v := range pink {
				state = alpha*state + (1-alpha)*v
				pink[i] = state
			}
			if sd := dsp.StdDev(pink); sd > 0 {
				inv := 1 / sd
				for i := range pink {
					pink[i] *= inv
				}
			}
		}
		for i := range y {
			y[i] += e.FlickerSigma * pink[i]
		}
	}
	if e.BasebandSigma > 0 {
		dsp.AddWhiteNoise(y, e.BasebandSigma, rng)
	}
	if e.DCOffset != 0 {
		for i := range y {
			y[i] += e.DCOffset
		}
	}
	return pink
}
