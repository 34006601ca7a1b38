package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// streamEnvelope renders a continuous capture holding one frame at a given
// symbol offset: idle noise, then the frame, then idle noise — the signal a
// stream detector actually faces (the frame rises out of a warm noise
// floor rather than starting at sample zero).
func streamEnvelope(t testing.TB, d *Demodulator, frame *lora.Frame, offsetSymbols float64, rssDBm float64, totalSymbols float64, rng *rand.Rand) []float64 {
	t.Helper()
	p := d.Config().Params
	fsSim := d.SimRateHz()
	spbSim := p.SamplesPerSymbol(fsSim)
	traj := frame.FreqTrajectory(nil, fsSim)
	total := int(math.Round(totalSymbols * float64(spbSim)))
	if need := int(math.Round(offsetSymbols*float64(spbSim))) + len(traj); need > total {
		total = need
	}
	x := make([]float64, total)
	d.ComposeSignal(x, int(math.Round(offsetSymbols*float64(spbSim))), traj, rssDBm)
	env, _ := d.Render(nil, nil, x, rng)
	return env
}

// TestDetectPreambleTable is the table-driven detection coverage: frames at
// several signal strengths and nonzero offsets inside a noisy continuous
// envelope, for both the comparator and correlation detectors.
func TestDetectPreambleTable(t *testing.T) {
	cases := []struct {
		name          string
		mode          Mode
		rssDBm        float64
		offsetSymbols float64
		calibRSS      float64
		wantDetect    bool
	}{
		{"full/strong/offset5", ModeFull, -50, 5, -50, true},
		{"full/mid/offset11.4", ModeFull, -65, 11.4, -65, true},
		{"full/weak/offset7", ModeFull, -75, 7, -75, true},
		{"full/deep-noise/offset6", ModeFull, -110, 6, -70, false},
		{"vanilla/strong/offset4", ModeVanilla, -50, 4, -50, true},
		{"vanilla/mid/offset9.3", ModeVanilla, -60, 9.3, -60, true},
		{"vanilla/deep-noise/offset6", ModeVanilla, -110, 6, -60, false},
	}
	payload := []int{1, 0, 1, 1, 0, 0, 1, 0}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = tc.mode
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.Calibrate(tc.calibRSS, dsp.NewRand(11, 12))
			frame, err := lora.NewFrame(cfg.Params, payload)
			if err != nil {
				t.Fatal(err)
			}
			env := streamEnvelope(t, d, frame, tc.offsetSymbols, tc.rssDBm, 64, dsp.NewRand(13, 14))
			// Stream inputs carry long noise runs before the frame, so use
			// the gated hunt the segmenter uses: without the envelope gate
			// the scale-free correlator locks onto the leading noise.
			baseline, sigma := d.NoiseStats()
			start, ok := d.DetectPreambleGated(env, baseline+4*sigma)
			if ok != tc.wantDetect {
				t.Fatalf("detect=%v, want %v", ok, tc.wantDetect)
			}
			if !tc.wantDetect {
				return
			}
			// The detector may lock a chirp or two late (the leading chirp
			// rises out of noise); it must never lock early or drift past
			// the preamble.
			spb := d.SamplesPerSymbol()
			expect := tc.offsetSymbols * spb
			slack := 2.5 * spb
			if float64(start) < expect-1.5*spb || float64(start) > expect+slack {
				t.Errorf("preamble located at %d, want within [%.0f, %.0f] (offset %.1f symbols)",
					start, expect-1.5*spb, expect+slack, tc.offsetSymbols)
			}
		})
	}
}

// TestDetectPreambleFalsePositiveRate measures the no-signal behavior: over
// many independent noise-only captures the gated hunt detector must stay
// quiet almost always. The comparator mode is inherently amplitude-gated by
// U_H; ModeFull relies on the envelope gate — the same configuration the
// stream segmenter runs with.
func TestDetectPreambleFalsePositiveRate(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Calibrate(-60, dsp.NewRand(21, 22))
		baseline, sigma := d.NoiseStats()
		p := cfg.Params
		spbSim := p.SamplesPerSymbol(d.SimRateHz())
		const trials = 40
		false1 := 0
		for trial := 0; trial < trials; trial++ {
			x := make([]float64, 60*spbSim)
			env, _ := d.Render(nil, nil, x, dsp.NewRand(uint64(trial), 23))
			if _, ok := d.DetectPreambleGated(env, baseline+4*sigma); ok {
				false1++
			}
		}
		if false1 > trials/10 {
			t.Errorf("%v: %d/%d false preamble detections on noise-only captures", mode, false1, trials)
		}
	}
}

// TestDetectFrameSyncAnchorsOnPreambleEnd verifies the stream-sync anchor:
// even when the detector misses the leading chirp (degraded by the
// noise-to-signal transition), the located payload start must stay within a
// fraction of a symbol of the truth, because the anchor is the run's end.
func TestDetectFrameSyncAnchorsOnPreambleEnd(t *testing.T) {
	cfg := DefaultConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Calibrate(-55, dsp.NewRand(31, 32))
	payload := make([]int, 16)
	frame, err := lora.NewFrame(cfg.Params, payload)
	if err != nil {
		t.Fatal(err)
	}
	const offset = 6.0
	env := streamEnvelope(t, d, frame, offset, -55, 64, dsp.NewRand(33, 34))
	payloadAt, ok := d.DetectFrameSync(env)
	if !ok {
		t.Fatal("DetectFrameSync found nothing")
	}
	spb := d.SamplesPerSymbol()
	truth := (offset + lora.PreambleUpchirps + lora.SyncSymbols) * spb
	if diff := float64(payloadAt) - truth; diff < -0.5*spb || diff > 0.5*spb {
		t.Errorf("payload anchored at %d, truth %.1f (off by %.2f symbols)", payloadAt, truth, diff/spb)
	}
}

// TestFirstPeriodicRunJitterChain is the regression for the ignored-marker
// bug: with a jittery extra marker ~35%% of a period after every true
// marker, the old code measured each next gap from the *ignored* marker, so
// every gap read as sub-period and the run never grew — a perfectly
// periodic preamble went undetected because of spurious tails alone.
func TestFirstPeriodicRunJitterChain(t *testing.T) {
	const period = 100.0
	// True markers every 100, a spurious tail 35 after each.
	marks := []int{0, 35, 100, 135, 200, 235, 300, 335, 400, 435}
	first, ok := firstPeriodicRun(marks, period)
	if !ok {
		t.Fatal("jitter chain defeated the periodic-run detector")
	}
	if first != 0 {
		t.Errorf("run starts at %d, want 0", first)
	}
	// The run's end must be the last true marker, not a spurious tail.
	_, last, ok := periodicRun(marks, period)
	if !ok || last != 400 {
		t.Errorf("run ends at %d (ok=%v), want 400", last, ok)
	}
}

// TestPeriodicRunBasics pins the plain cases.
func TestPeriodicRunBasics(t *testing.T) {
	cases := []struct {
		name   string
		marks  []int
		period float64
		first  int
		last   int
		ok     bool
	}{
		{"clean", []int{10, 110, 210, 310, 410, 510}, 100, 10, 510, true},
		{"too-few", []int{0, 100, 200, 300}, 100, 0, 0, false},
		{"reset-then-run", []int{0, 500, 600, 700, 800, 900, 1000}, 100, 500, 1000, true},
		{"jitter-tolerated", []int{0, 95, 205, 300, 410, 505}, 100, 0, 505, true},
		{"break-after-run", []int{0, 100, 200, 300, 400, 900}, 100, 0, 400, true},
		{"empty", nil, 100, 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, last, ok := periodicRun(tc.marks, tc.period)
			if ok != tc.ok || first != tc.first || last != tc.last {
				t.Errorf("periodicRun=%d,%d,%v want %d,%d,%v", first, last, ok, tc.first, tc.last, tc.ok)
			}
		})
	}
}

// FuzzFirstPeriodicRun fuzzes the periodic-run search with arbitrary marker
// layouts: it must never panic, and any reported run must consist of
// markers actually present, ordered, and at least minPreamblePeaks long in
// span.
func FuzzFirstPeriodicRun(f *testing.F) {
	f.Add([]byte{100, 100, 100, 100, 100}, 100.0)
	f.Add([]byte{10, 35, 65, 100, 35, 65, 100, 100}, 100.0)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, 6.4)
	f.Add([]byte{6, 7, 6, 6, 7, 8, 13, 6}, 6.4)
	f.Fuzz(func(t *testing.T, deltas []byte, period float64) {
		if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
			t.Skip()
		}
		marks := make([]int, 0, len(deltas))
		at := 0
		for _, d := range deltas {
			at += int(d)
			marks = append(marks, at)
		}
		first, last, ok := periodicRun(marks, period)
		single, sok := firstPeriodicRun(marks, period)
		if ok != sok || (ok && single != first) {
			t.Fatalf("firstPeriodicRun=%d,%v disagrees with periodicRun=%d,%v", single, sok, first, ok)
		}
		if !ok {
			return
		}
		contains := func(v int) bool {
			for _, m := range marks {
				if m == v {
					return true
				}
			}
			return false
		}
		if !contains(first) || !contains(last) {
			t.Fatalf("run [%d, %d] reports markers not in the input %v", first, last, marks)
		}
		if last < first {
			t.Fatalf("run end %d before start %d", last, first)
		}
		lo := period * (1 - spacingTolerance)
		if float64(last-first) < float64(minPreamblePeaks-1)*lo-1e-9 {
			t.Fatalf("run [%d, %d] too short for %d periodic markers at period %g", first, last, minPreamblePeaks, period)
		}
	})
}
