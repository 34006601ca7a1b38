package core

import (
	"math"
	"math/rand/v2"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// Automatic gain control: the paper configures U_H/U_L from an offline
// per-distance mapping table and names AGC as future work ("one could
// leverage an Automatic Gain Control to adapt the power gain
// automatically", Section 4.1). This file implements that extension: the
// tag derives its thresholds from the statistics of the incoming frame's
// own preamble, so no calibration table is needed.

// Online threshold estimator percentiles, which track the offline
// calibration closely across the link budget's working range.
const (
	// agcPeakPercentile estimates Amax from the envelope (robust to spikes).
	agcPeakPercentile = 98
	// agcFloorPercentile estimates the baseline level.
	agcFloorPercentile = 25
)

// AutoCalibrate derives comparator thresholds, the noise baseline, and (in
// ModeFull) the correlation templates from an observed envelope — normally
// the first preamble symbols of the frame being received. It marks the
// demodulator calibrated.
//
// Template shapes are RSS independent (the chain downstream of the square
// law is linear, and the correlation decoder normalizes), so templates are
// rendered once at a nominal level.
func (d *Demodulator) AutoCalibrate(env []float64) {
	peak := dsp.Percentile(env, agcPeakPercentile)
	floor := dsp.Percentile(env, agcFloorPercentile)
	if floor > peak {
		floor = peak
	}
	d.baseline = floor
	d.amax = peak
	// Noise scale: spread of the lower half of the envelope, where only
	// the band-bottom response plus noise lives.
	low := dsp.Percentile(env, 45)
	d.noiseSigma = math.Max((low-floor)/0.6745, 1e-12) // MAD-style robust sigma
	d.comparator = d.thresholdsFor(floor, peak, d.noiseSigma)
	d.peakBias = d.nominalBias()

	if d.cfg.Mode == ModeFull && d.templates == nil {
		d.buildTemplates(templateNominalRSS)
	}
	d.syncFx()
	d.calibrated = true
}

// nominalBias measures the falling-edge lag once at a nominal level with
// thresholds derived the same relative way, and caches it. The lag is a
// filter property (fixed delay in samples), so the nominal measurement
// transfers across signal levels.
func (d *Demodulator) nominalBias() float64 {
	if d.biasCached {
		return d.cachedBias
	}
	saved := d.comparator
	p := d.cfg.Params
	traj := p.FreqTrajectory(nil, 0, d.fsSim)
	env, _ := d.Render(nil, nil, d.antenna(traj, templateNominalRSS), nil)
	floor := dsp.Min(env)
	peak := dsp.Max(env)
	headroom := math.Pow(10, -d.cfg.ThresholdGapDB/20)
	high := floor + (peak-floor)*headroom
	low := high - 0.25*(peak-floor)
	d.comparator = analog.Comparator{High: high, Low: low}
	d.cachedBias = d.measureDecodeBias(templateNominalRSS)
	d.biasCached = true
	d.comparator = saved
	return d.cachedBias
}

// templateNominalRSS is the level used for RSS-independent template
// rendering.
const templateNominalRSS = -40.0

// autoBootstrap derives comparator thresholds from the leading half of the
// preamble of an observed envelope via AutoCalibrate.
func (d *Demodulator) autoBootstrap(env []float64) {
	boot := int(math.Round(d.spbSamp * lora.PreambleUpchirps / 2))
	if boot > len(env) {
		boot = len(env)
	}
	d.AutoCalibrate(env[:boot])
}

// ProcessFrameAuto demodulates a frame with no prior calibration: it
// renders the envelope, bootstraps thresholds from the leading preamble
// portion via AGC, then detects and decodes as usual. This is the
// plug-and-play mode a field deployment would use.
func (d *Demodulator) ProcessFrameAuto(frame *lora.Frame, rssDBm float64, rng *rand.Rand) ([]int, bool, error) {
	traj := frame.FreqTrajectory(nil, d.fsSim)
	env, envC := d.Render(nil, nil, d.antenna(traj, rssDBm), rng)
	d.autoBootstrap(env)
	return d.decodeFrame(env, envC, len(frame.Payload))
}
