package core

import (
	"math"

	"saiyan/internal/lora"
)

// Continuous-stream reception: a segmenter (internal/stream) hunts preambles
// in an unbounded envelope capture and hands each extracted window to
// DecodeStreamWindow. Unlike ProcessFrame, nothing here renders — the
// envelope already exists (a recorded capture or a timeline render), exactly
// the situation of a gateway demodulating what its front end sampled.

// SamplesPerSymbol returns the (fractional) number of sampler-rate samples
// one symbol time occupies — the unit in which stream segmentation and
// window extraction measure the capture.
func (d *Demodulator) SamplesPerSymbol() float64 { return d.spbSamp }

// PrewarmAuto materializes every RSS-independent calibration artifact — the
// decode-bias cache and, in ModeFull, the correlation and detection
// templates — without calibrating thresholds. A prewarmed demodulator is the
// master a stream worker pool clones from: each clone then AutoCalibrates
// per extracted window (thresholds from the window's own preamble) without
// re-measuring the shared artifacts.
func (d *Demodulator) PrewarmAuto() {
	d.peakBias = d.nominalBias()
	if d.cfg.Mode == ModeFull {
		if d.templates == nil {
			d.buildTemplates(templateNominalRSS)
		}
		d.detectionTemplate()
	}
	// Materialize the quantized template bank too, so stream workers clone
	// a complete integer twin and per-window AutoCalibrate only re-anchors
	// thresholds.
	d.syncFx()
}

// DecodeStreamWindow demodulates one frame window extracted from a
// continuous capture: env is the sampler-rate envelope beginning at
// (approximately) the first preamble symbol, envC the matching
// correlator-rate window in ModeFull (CorrOversample samples per env
// sample; nil otherwise), and nSymbols the expected payload length.
//
// The demodulator bootstraps its comparator thresholds from the window's
// own leading preamble via AutoCalibrate — the receiver of a continuous
// capture does not know the transmitter's distance, so the per-distance
// table of ProcessFrame is unavailable — then re-syncs inside the window
// via DetectFrameSync (anchored on the preamble's end, which survives a
// degraded leading chirp) and decodes the payload with the calibrated
// peakBias timing. It returns the decoded symbols and whether the preamble
// was confirmed.
func (d *Demodulator) DecodeStreamWindow(env, envC []float64, nSymbols int) ([]int, bool, error) {
	if nSymbols < 0 {
		nSymbols = 0
	}
	// The segmenter aligned the window start to the detected preamble, so
	// the bootstrap region is signal, not gap.
	d.autoBootstrap(env)
	payloadAt, ok := d.DetectFrameSync(env)
	if !ok {
		return nil, false, nil
	}
	return d.decodePayloadAt(env, envC, payloadAt, nSymbols)
}

// decodeFrame detects the preamble in a rendered frame and decodes the
// nSymbols payload symbols behind it. DetectPreamble returns where the
// first preamble symbol begins; the payload follows the ten up-chirps and
// 2.25 sync symbol times (Section 2.2, Figure 8).
func (d *Demodulator) decodeFrame(env, envC []float64, nSymbols int) ([]int, bool, error) {
	start, ok := d.DetectPreamble(env)
	if !ok {
		return nil, false, nil
	}
	payloadAt := start + int(math.Round((float64(lora.PreambleUpchirps)+lora.SyncSymbols)*d.spbSamp))
	return d.decodePayloadAt(env, envC, payloadAt, nSymbols)
}

// decodePayloadAt decodes nSymbols payload symbols beginning at sampler
// index payloadAt, from the mode-appropriate stream (the correlator-rate
// envC in ModeFull, env otherwise). A payload start beyond the available
// samples reports a detected but undecodable frame.
func (d *Demodulator) decodePayloadAt(env, envC []float64, payloadAt, nSymbols int) ([]int, bool, error) {
	if d.cfg.Mode == ModeFull {
		lo := payloadAt * d.cfg.CorrOversample
		if lo >= len(envC) {
			return nil, true, nil
		}
		if d.fx != nil {
			return d.fxDecodeCorr(envC[lo:], nSymbols), true, nil
		}
		return d.decodeByCorrelation(envC[lo:], nSymbols), true, nil
	}
	if payloadAt >= len(env) {
		return nil, true, nil
	}
	if d.fx != nil {
		return d.fxDecodePeak(env[payloadAt:], nSymbols), true, nil
	}
	return d.decodeByPeakTracking(env[payloadAt:], nSymbols), true, nil
}
