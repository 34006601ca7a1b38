package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
	"saiyan/internal/fxp"
)

// Demodulator is a configured Saiyan tag receiver. Build with New, then
// Calibrate for a link distance before demodulating (the prototype does the
// same: Section 4.1 stores per-distance threshold tables on the tag).
//
// A Demodulator is not safe for concurrent use; clone one per goroutine.
type Demodulator struct {
	cfg     Config
	fsSim   float64
	fsSamp  float64
	spbSim  float64 // samples per symbol at the simulation rate (fractional)
	spbSamp float64 // samples per symbol at the sampler rate (fractional)
	// spbSimInt is the integer per-symbol sample count the trajectory
	// generators use; decode windows derive from it so symbol boundaries
	// stay aligned over long frames instead of drifting by the rounding
	// residue.
	spbSimInt int

	lpf  *dsp.FIR // post-detection video filter, evaluated on the sampler grids
	bpf  *dsp.FIR // IF band-pass (cyclic-frequency shifting)
	ifHz float64  // intermediate frequency (2x the clock, from cos^2)

	// Calibration state.
	calibrated bool
	comparator analog.Comparator
	baseline   float64 // envelope level with no signal
	noiseSigma float64 // envelope noise std dev
	amax       float64 // envelope peak with signal at the calibrated RSS
	peakBias   float64 // systematic falling-edge lag, in symbol fractions
	biasCached bool
	cachedBias float64
	templates  [][]float64
	// tmplStats precomputes each template's mean and zero-mean energy so
	// the correlation decoder's hot loop makes a single fused pass per
	// template; nil when template lengths are not uniform (exact fallback).
	tmplStats []templateStat
	detTmpl   []float64 // one-symbol detection template (lazy)

	// fx is the fixed-point MCU datapath (Config.Datapath ==
	// DatapathFixed): the payload decoders run on ADC-quantized integer
	// samples instead of the float envelope. nil for DatapathFloat.
	fx *fxp.Decoder

	// Scratch buffers to keep the per-frame hot path allocation-free.
	// A render holds two simulation-rate buffers: scratchAnt (the antenna
	// signal, detected in place) and scratchBuf (the flicker noise, then
	// the IF band-pass output).
	scratchAnt []float64
	scratchBuf []float64
	scratchBit []bool
	scratchOwn []edgeInfo
	scratchBnd []bool
	scratchEnd []bool

	// scratchCorr and scratchIdx hold preamble detection's correlation and
	// marker indices.
	scratchCorr []float64
	scratchIdx  []int
}

// edgeInfo records a symbol window's own mid-window falling edge for the
// peak-tracking decoder's two-pass bookkeeping.
type edgeInfo struct {
	frac float64
	ok   bool
}

// New builds a demodulator from cfg, applying defaults and validating.
func New(cfg Config) (*Demodulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Demodulator{cfg: cfg}
	d.fsSamp = cfg.SamplerRateHz()
	d.fsSim = cfg.SimRateHz()
	d.spbSamp = cfg.Params.SymbolDuration() * d.fsSamp
	d.spbSim = cfg.Params.SymbolDuration() * d.fsSim
	d.spbSimInt = cfg.Params.SamplesPerSymbol(d.fsSim)

	cutoff := cfg.VideoCutoffFrac * d.fsSamp
	d.lpf, err = dsp.NewLowPass(cutoff, d.fsSim, 63, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("core: video filter: %w", err)
	}
	if cfg.Mode != ModeVanilla {
		// The MCU clock runs at fsSim/8; squaring the mixed signal lands
		// the IF at twice the clock, fsSim/4 (see mixer.go).
		d.ifHz = d.fsSim / 4
		half := cutoff
		d.bpf, err = dsp.NewBandPass(d.ifHz-half, d.ifHz+half, d.fsSim, 63, dsp.Hamming)
		if err != nil {
			return nil, fmt.Errorf("core: IF filter: %w", err)
		}
	}
	if cfg.Datapath == DatapathFixed {
		d.fx, err = fxp.NewDecoder(fxp.Config{
			Params:              cfg.Params,
			SimSamplesPerSymbol: d.spbSimInt,
			SamplerDecim:        cfg.Oversample,
			CorrDecim:           cfg.Oversample / cfg.CorrOversample,
			ADCBits:             cfg.ADCBits,
		})
		if err != nil {
			return nil, fmt.Errorf("core: fixed-point datapath: %w", err)
		}
	}
	return d, nil
}

// Config returns the (defaulted) configuration.
func (d *Demodulator) Config() Config { return d.cfg }

// SamplerRateHz returns the comparator sampling rate.
func (d *Demodulator) SamplerRateHz() float64 { return d.fsSamp }

// SimRateHz returns the internal analog simulation rate.
func (d *Demodulator) SimRateHz() float64 { return d.fsSim }

// snrAmplitude converts an RSS into the normalized signal amplitude at the
// envelope-detector input: unit-power front-end noise, amplitude
// sqrt(SNR). The noise reference is thermal density plus the LNA noise
// figure over the simulation bandwidth (the front end is modeled as
// band-limited to the simulation rate).
func (d *Demodulator) snrAmplitude(rssDBm float64) float64 {
	if math.IsInf(rssDBm, -1) {
		return 0
	}
	noiseDBm := -174.0 + d.cfg.LNA.NoiseFigureDB + 10*math.Log10(d.fsSim)
	return math.Sqrt(dsp.FromDB(rssDBm - noiseDBm))
}

// gridOffset is the simulation-rate index of the first sample a sampler
// decimating by decim reads. The sample-and-hold fires mid-way through each
// decim-long window (Section 2.3), so sample k reads simulation index
// gridOffset(decim) + k*decim. This is the one statement of the sampler
// grid; everything else derives from it.
func gridOffset(decim int) int { return decim / 2 }

// SimIndex returns the simulation-rate index that sampler-rate sample k
// reads.
func (d *Demodulator) SimIndex(k int) int {
	return gridOffset(d.cfg.Oversample) + k*d.cfg.Oversample
}

// SamplerIndex returns the first sampler-rate sample that reads simulation
// index i or a later one.
func (d *Demodulator) SamplerIndex(i int) int {
	ovs := d.cfg.Oversample
	return (i - gridOffset(ovs) + ovs - 1) / ovs
}

// ComposeSignal adds the SAW-shaped antenna signal of one transmission into
// a composite simulation-rate buffer, starting at sample offset at. It is
// the only place the SAW gain is applied. The SAW filter is linear, so
// concurrent transmissions superpose: calling ComposeSignal repeatedly with
// different trajectories, offsets, and signal strengths builds the
// continuous antenna view of a whole multi-tag timeline (frames, gaps, even
// colliding frames) that Render then pushes through the analog chain in one
// pass. A single transmission is composed at offset 0 into a cleared
// buffer. Samples falling outside x are clipped. The antenna signal is
// real: the complex envelope only appears once Render adds front-end noise.
func (d *Demodulator) ComposeSignal(x []float64, at int, trajHz []float64, rssDBm float64) {
	amp := d.snrAmplitude(rssDBm)
	carrier := d.cfg.Params.CarrierHz
	saw := d.cfg.SAW
	for i, f := range trajHz {
		j := at + i
		if j < 0 {
			continue
		}
		if j >= len(x) {
			break
		}
		x[j] += amp * saw.Gain(carrier+f)
	}
}

// antenna composes one transmission at offset 0 into the cleared antenna
// scratch buffer, ready for Render. The result is only valid until the next
// call.
func (d *Demodulator) antenna(trajHz []float64, rssDBm float64) []float64 {
	n := len(trajHz)
	if cap(d.scratchAnt) < n {
		d.scratchAnt = make([]float64, n)
	}
	x := d.scratchAnt[:n]
	clear(x)
	d.ComposeSignal(x, 0, trajHz, rssDBm)
	return x
}

// Render pushes a composed antenna signal (see ComposeSignal) through the
// analog chain once — front-end noise, envelope detection, optionally
// cyclic-frequency shifting, and the video low-pass filter — and returns
// what every reader of that one waveform samples: the comparator sampler's
// stream in env and, in ModeFull, the correlator's stream at
// CorrOversample times that rate in envC (empty in the other modes). Both
// are written into the given buffers, grown as needed. The video filter is
// evaluated only at the simulation indices the two samplers read (see
// SimIndex); it is the chain's only decimator.
//
// Front-end noise of unit power is added when rng is non-nil; pass nil for
// a noise-free reference render (calibration, correlation templates). The
// real antenna signal x becomes the complex envelope only inside one fused
// noise/mix/detect pass (analog.EnvelopeDetector.Detect), which overwrites
// x with the detector output. The chain then needs one more
// simulation-rate buffer, the demodulator's scratch, which holds the
// flicker noise and then the IF band-pass output: two float64 buffers per
// capture in all. A continuous capture is one Render of its whole
// timeline, so frames, idle gaps, and chunk boundaries share one
// contiguous envelope with no per-frame filter edge transients.
func (d *Demodulator) Render(env, envC []float64, x []float64, rng *rand.Rand) ([]float64, []float64) {
	det := d.cfg.Envelope
	clockHz := 0.0
	if d.cfg.Mode != ModeVanilla {
		// Cyclic-frequency shifting (Figure 9): mix up, square, band-pass
		// at the IF, amplify, mix down, low-pass.
		clockHz = d.ifHz / 2
	}
	det.Detect(x, clockHz, d.fsSim, rng)
	y := x
	if rng != nil {
		d.scratchBuf = det.AddBasebandImpairments(y, d.fsSim, rng, d.scratchBuf)
	}
	if d.cfg.Mode != ModeVanilla {
		d.scratchBuf = d.bpf.Apply(d.scratchBuf, y)
		y = d.scratchBuf
		d.cfg.IFAmp.Apply(y)
		out := analog.Oscillator{FreqHz: d.ifHz}
		out.MixReal(y, d.fsSim, d.cfg.ClockPhaseError)
		// Makeup gain: cos^2 halves the signal twice (up-mix and
		// down-mix); restore the vanilla scale so thresholds compare.
		g := 4 / math.Pow(10, d.cfg.IFAmp.GainDB/20)
		for i := range y {
			y[i] *= g
		}
	}
	ovs := d.cfg.Oversample
	env = d.lpf.ApplyStrided(env, y, ovs, gridOffset(ovs))
	if d.cfg.Mode != ModeFull {
		return env, envC[:0]
	}
	c := ovs / d.cfg.CorrOversample
	return env, d.lpf.ApplyStrided(envC, y, c, gridOffset(c))
}
