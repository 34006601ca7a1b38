package stream

import (
	"context"
	"fmt"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

const testSeed = 20220404

// testCapture renders the acceptance workload: nTags tags at close range,
// framesPerTag frames each, idle gaps, continuous envelope.
func testCapture(t testing.TB, nTags, framesPerTag int, tl sim.TimelineConfig) *sim.Stream {
	t.Helper()
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), nTags, 20, 80, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	tl.FramesPerTag = framesPerTag
	capture, err := ts.RenderTimeline(core.DefaultConfig(), tl)
	if err != nil {
		t.Fatal(err)
	}
	return capture
}

func testConfigs() (pipeline.Config, Config) {
	pcfg := pipeline.DefaultConfig()
	pcfg.Seed = testSeed
	pcfg.DiscardResults = true
	scfg := Config{Demod: core.DefaultConfig(), Seed: testSeed}
	return pcfg, scfg
}

// statsEqual compares the deterministic counters.
func statsEqual(a, b Stats) bool {
	return a.FramesIn == b.FramesIn && a.FramesOut == b.FramesOut &&
		a.FramesDetected == b.FramesDetected && a.FramesChecked == b.FramesChecked &&
		a.FramesCorrect == b.FramesCorrect && a.Symbols == b.Symbols &&
		a.SymbolErrs == b.SymbolErrs &&
		a.FramesScheduled == b.FramesScheduled && a.WindowsEmitted == b.WindowsEmitted &&
		a.WindowsMatched == b.WindowsMatched && a.SamplesIn == b.SamplesIn
}

// TestStreamEndToEnd is the acceptance contract: a continuous capture of
// 3 tags x 4 frames with idle gaps, delivered in chunks small enough that
// every frame straddles a boundary, is segmented and demodulated with
// >= 95% frame recovery, and the Stats are identical at 1, 4, and 8
// workers.
func TestStreamEndToEnd(t *testing.T) {
	capture := testCapture(t, 3, 4, sim.TimelineConfig{})
	// A frame spans ~44 symbols (~283 samples); 128-sample chunks guarantee
	// every frame straddles at least one chunk boundary.
	const chunk = 128
	var first Stats
	for i, workers := range []int{1, 4, 8} {
		pcfg, scfg := testConfigs()
		pcfg.Workers = workers
		st, err := Demodulate(context.Background(), pcfg, scfg, capture, chunk)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.FramesScheduled != 12 {
			t.Fatalf("workers=%d: scheduled %d frames, want 12", workers, st.FramesScheduled)
		}
		if rec := st.Recovery(); rec < 0.95 {
			t.Errorf("workers=%d: recovery %.2f (%d/%d correct, %d windows, %d matched), want >= 0.95",
				workers, rec, st.FramesCorrect, st.FramesScheduled, st.WindowsEmitted, st.WindowsMatched)
		}
		if i == 0 {
			first = st
		} else if !statsEqual(first, st) {
			t.Errorf("workers=%d diverged from workers=1:\n1: %+v\n%d: %+v", workers, first, workers, st)
		}
	}
}

// TestStreamDeterministicAcrossWorkerCounts widens TestStreamEndToEnd's
// worker-count contract to every demod mode and both datapaths: the capture
// is rendered through the mode's own chain, and the stream Stats (plus the
// fixed-point cycle ledger) must be identical at 1, 4, and 8 workers.
func TestStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 3, 20, 80, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeFreqShift, core.ModeFull} {
		demod := core.DefaultConfig()
		demod.Mode = mode
		capture, err := ts.RenderTimeline(demod, sim.TimelineConfig{FramesPerTag: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
			t.Run(fmt.Sprintf("%v/%v", mode, dp), func(t *testing.T) {
				var first Stats
				for i, workers := range []int{1, 4, 8} {
					pcfg, scfg := testConfigs()
					pcfg.Workers = workers
					pcfg.Demod.Mode, scfg.Demod.Mode = mode, mode
					pcfg.Demod.Datapath, scfg.Demod.Datapath = dp, dp
					st, err := Demodulate(context.Background(), pcfg, scfg, capture, 128)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if st.WindowsEmitted == 0 {
						t.Fatalf("workers=%d: no windows segmented", workers)
					}
					if i == 0 {
						first = st
					} else if !statsEqual(first, st) || st.FxpCycles != first.FxpCycles {
						t.Errorf("workers=%d diverged from workers=1:\n1: %+v\n%d: %+v", workers, first, workers, st)
					}
				}
			})
		}
	}
}

// TestStreamChunkInvariance verifies segmentation is a pure function of the
// capture: any chunking — one giant chunk, tiny chunks, odd sizes — yields
// identical windows and identical decode outcomes.
func TestStreamChunkInvariance(t *testing.T) {
	capture := testCapture(t, 3, 2, sim.TimelineConfig{})
	var first Stats
	for i, chunk := range []int{0, 64, 97, 1000} {
		pcfg, scfg := testConfigs()
		pcfg.Workers = 2
		st, err := Demodulate(context.Background(), pcfg, scfg, capture, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if i == 0 {
			first = st
		} else if !statsEqual(first, st) {
			t.Errorf("chunk=%d diverged:\nfirst: %+v\n here: %+v", chunk, first, st)
		}
	}
	if first.Recovery() < 0.95 {
		t.Errorf("recovery %.2f, want >= 0.95", first.Recovery())
	}
}

// TestStreamCollisionsAreLostNotFatal schedules every 4th frame to collide
// with its predecessor: collided frames may be lost (a real gateway loses
// them too), but segmentation must keep working and clean frames must still
// be recovered.
func TestStreamCollisionsAreLostNotFatal(t *testing.T) {
	capture := testCapture(t, 3, 4, sim.TimelineConfig{OverlapEvery: 4})
	collisions := 0
	for _, ev := range capture.Events {
		if ev.Collides {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("timeline scheduled no collisions")
	}
	pcfg, scfg := testConfigs()
	pcfg.Workers = 4
	st, err := Demodulate(context.Background(), pcfg, scfg, capture, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Every collision can cost up to two frames (the collider and its
	// victim); everything else should still come through.
	clean := st.FramesScheduled - 2*collisions
	if int(st.FramesCorrect) < clean*9/10 {
		t.Errorf("recovered %d frames, want >= %d (%d scheduled, %d collisions)",
			st.FramesCorrect, clean*9/10, st.FramesScheduled, collisions)
	}
}

// TestStreamIdleCaptureEmitsNothing feeds a noise-only capture: the
// carrier-sense gate must keep the pipeline empty (no windows, no frames).
func TestStreamIdleCaptureEmitsNothing(t *testing.T) {
	capture := testCapture(t, 2, 1, sim.TimelineConfig{})
	// Keep only the idle lead-in plus some margin of the capture; no frame
	// starts there.
	idle := capture.Events[0].StartSamp - 1
	quiet := &sim.Stream{
		Env:              capture.Env[:idle],
		SampleRateHz:     capture.SampleRateHz,
		SamplesPerSymbol: capture.SamplesPerSymbol,
		CorrOversample:   capture.CorrOversample,
		PayloadSymbols:   capture.PayloadSymbols,
	}
	if capture.EnvC != nil {
		quiet.EnvC = capture.EnvC[:idle*capture.CorrOversample]
	}
	pcfg, scfg := testConfigs()
	pcfg.Workers = 1
	st, err := Demodulate(context.Background(), pcfg, scfg, quiet, 128)
	if err != nil {
		t.Fatal(err)
	}
	if st.WindowsEmitted != 0 || st.FramesOut != 0 {
		t.Errorf("idle capture produced %d windows / %d frames, want none", st.WindowsEmitted, st.FramesOut)
	}
}

// TestSegmenterConfigValidation exercises the rejection paths.
func TestSegmenterConfigValidation(t *testing.T) {
	if _, err := NewSegmenter(Config{Demod: core.DefaultConfig(), PayloadSymbols: -1}, func(Window) error { return nil }); err == nil {
		t.Error("negative payload length accepted")
	}
	if _, err := NewSegmenter(Config{Demod: core.DefaultConfig()}, nil); err == nil {
		t.Error("nil emit callback accepted")
	}
	bad := core.DefaultConfig()
	bad.Oversample = 1
	if _, err := NewSegmenter(Config{Demod: bad}, func(Window) error { return nil }); err == nil {
		t.Error("invalid demodulator config accepted")
	}
}
