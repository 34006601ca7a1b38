package saiyan_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saiyan"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := saiyan.DefaultConfig()
	cfg.Params.K = 2
	demod, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := saiyan.NewRand(1, 2)
	rss := saiyan.DefaultLinkBudget().RSSDBm(60)
	demod.Calibrate(rss, rng)
	frame, err := saiyan.NewFrame(cfg.Params, []int{1, 0, 3, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	symbols, detected, err := demod.ProcessFrame(frame, rss, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("preamble not detected at 60 m")
	}
	errs := 0
	for i, want := range frame.Payload {
		if i >= len(symbols) || symbols[i] != want {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("decoded %v, want %v", symbols, frame.Payload)
	}
}

func TestFacadeLinkMeasurement(t *testing.T) {
	link := saiyan.NewLink(saiyan.DefaultConfig(), saiyan.DefaultLinkBudget(), 99)
	res, err := link.MeasureBER(30, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() > 0.01 {
		t.Errorf("BER at 30 m = %g, want ~0", res.BER())
	}
}

func TestFacadeEnergy(t *testing.T) {
	if saiyan.PCBLedger().TotalPowerUW() < saiyan.ASICLedger().TotalPowerUW() {
		t.Error("ASIC should be cheaper than PCB")
	}
	if !saiyan.DefaultHarvester().Sustainable(saiyan.ASICLedger().TotalPowerUW() * 0.1) {
		t.Error("10% duty ASIC should be sustainable")
	}
}

func TestFacadeRetransmission(t *testing.T) {
	res := saiyan.SimulateRetransmission(0.5, 1, 20000, 2, saiyan.NewRand(3, 4))
	if res.PRR[2] < res.PRR[0] {
		t.Error("PRR should not decrease with retries")
	}
	if res.PRR[2] < 0.8 {
		t.Errorf("PRR with 2 retries = %g, want ~0.875", res.PRR[2])
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if got := len(saiyan.Experiments()); got < 20 {
		t.Errorf("only %d experiments registered", got)
	}
	var buf bytes.Buffer
	opts := saiyan.DefaultExperimentOptions()
	opts.Quick = true
	if err := saiyan.RunExperiment("fig5", opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig5") {
		t.Error("experiment output missing header")
	}
	if err := saiyan.RunExperiment("nope", opts, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeStandardReceiver(t *testing.T) {
	p := saiyan.DefaultParams()
	rx, err := saiyan.NewReceiver(p, p.BandwidthHz)
	if err != nil {
		t.Fatal(err)
	}
	if rx.SamplesPerSymbol() != 128 {
		t.Errorf("samples per symbol = %d, want 128", rx.SamplesPerSymbol())
	}
}

func TestFacadeSAW(t *testing.T) {
	saw := saiyan.PaperSAW()
	if gap := saw.AmplitudeGapDB(500e3); gap < 24.9 || gap > 25.1 {
		t.Errorf("SAW gap = %g, want 25 dB", gap)
	}
}

func TestCommandOverPHYEndToEnd(t *testing.T) {
	// The full feedback path: the AP encodes a "hop to channel 2" command,
	// modulates it as a downlink frame, the simulated channel attenuates
	// it over 90 m, the tag's Saiyan front end demodulates the symbols,
	// and the MAC layer parses the command back — checksum intact.
	cfg := saiyan.DefaultConfig()
	cfg.Params.K = 3
	demod, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := saiyan.NewRand(404, 2022)
	rss := saiyan.DefaultLinkBudget().RSSDBm(90)
	demod.Calibrate(rss, rng)

	cmd := saiyan.Command{Op: saiyan.OpHopChannel, Addr: 17, Arg: 2}
	frame, err := cmd.ToFrame(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	symbols, detected, err := demod.ProcessFrame(frame, rss, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("command frame not detected at 90 m")
	}
	got, err := saiyan.ParseCommandSymbols(cfg.Params, symbols)
	if err != nil {
		t.Fatalf("command did not survive the air: %v (symbols %v)", err, symbols)
	}
	if got != cmd {
		t.Errorf("received %+v, sent %+v", got, cmd)
	}
}

func TestNetworkFacade(t *testing.T) {
	rng := saiyan.NewRand(1, 9)
	n, err := saiyan.NewNetwork(16, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddTag(1, 0.9, 0.99); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		n.RunRound(2)
	}
	if rate := n.DeliveryRate(); rate < 0.9 {
		t.Errorf("delivery rate = %g, want > 0.9 with feedback", rate)
	}
}

func TestFacadeRecordReplay(t *testing.T) {
	// Record a small live workload through the facade, then replay and
	// verify it reproduces the recorded decisions bit-exactly.
	path := filepath.Join(t.TempDir(), "facade.trace.gz")
	tags, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), 3, 20, 90, 7)
	if err != nil {
		t.Fatal(err)
	}
	src, err := saiyan.NewTagTrafficSource(tags, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := saiyan.DefaultPipelineConfig()
	cfg.Seed = 7
	cfg.Workers = 2
	cfg.DiscardResults = true
	live, err := saiyan.RecordTrace(context.Background(), path, cfg, src, false)
	if err != nil {
		t.Fatal(err)
	}
	if live.FramesOut != 6 {
		t.Fatalf("recorded %d frames, want 6", live.FramesOut)
	}

	replayed, err := saiyan.ReplayTrace(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.SER() != live.SER() || replayed.PRR() != live.PRR() ||
		replayed.DetectRate() != live.DetectRate() || replayed.FramesOut != live.FramesOut {
		t.Errorf("replay stats diverged:\nlive:   %v\nreplay: %v", live, replayed)
	}

	st, mismatches, err := saiyan.VerifyTrace(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mismatches != 0 {
		t.Errorf("%d of %d replayed frames diverged from the recorded decisions", mismatches, st.FramesOut)
	}

	// The low-level reader sees the same frames and metadata.
	r, err := saiyan.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if hdr := r.Header(); hdr.Seed != 7 {
		t.Errorf("trace header seed = %d, want 7", hdr.Seed)
	}
	n := uint64(0)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != n {
			t.Errorf("record %d carries seq %d", n, rec.Seq)
		}
		n++
	}
	if n != live.FramesOut {
		t.Errorf("trace holds %d records, live run processed %d", n, live.FramesOut)
	}

	// Truncation is loud, not silent.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(t.TempDir(), "cut.trace.gz")
	if err := os.WriteFile(cutPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := saiyan.ReplayTrace(cutPath, 1); err == nil {
		t.Error("replaying a truncated trace succeeded silently")
	}
}

// failingSource yields a few good frames, then an error — simulating a
// capture that dies mid-run.
type failingSource struct {
	inner saiyan.PipelineSource
	left  int
}

func (s *failingSource) Next() (saiyan.PipelineJob, error) {
	if s.left == 0 {
		return saiyan.PipelineJob{}, errors.New("capture source died")
	}
	s.left--
	return s.inner.Next()
}

// TestFacadeRecordTraceAbortsOnFailure verifies a failed RecordTrace run
// leaves a deliberately truncated trace: the frames captured before the
// failure stay readable, but the file can never pass for a complete
// capture.
func TestFacadeRecordTraceAbortsOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failed.trace.gz")
	tags, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), 2, 20, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := saiyan.NewTagTrafficSource(tags, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := saiyan.DefaultPipelineConfig()
	cfg.Seed = 7
	cfg.DiscardResults = true
	if _, err := saiyan.RecordTrace(context.Background(), path, cfg, &failingSource{inner: inner, left: 3}, false); err == nil {
		t.Fatal("RecordTrace with a dying source succeeded")
	}

	r, err := saiyan.OpenTrace(path)
	if err != nil {
		t.Fatalf("frames captured before the failure should stay readable: %v", err)
	}
	defer r.Close()
	n := 0
	var lastErr error
	for {
		if _, err := r.Next(); err != nil {
			lastErr = err
			break
		}
		n++
	}
	if !errors.Is(lastErr, saiyan.ErrTraceTruncated) {
		t.Errorf("aborted capture drained with %v, want ErrTraceTruncated", lastErr)
	}
	if n != 3 {
		t.Errorf("aborted capture holds %d records, want the 3 processed before the failure", n)
	}
	if _, _, err := saiyan.VerifyTrace(path, 2); !errors.Is(err, saiyan.ErrTraceTruncated) {
		t.Errorf("VerifyTrace on aborted capture: err=%v, want ErrTraceTruncated", err)
	}
}

func TestFacadeTraceErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.trace")
	if err := os.WriteFile(path, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := saiyan.OpenTrace(path); !errors.Is(err, saiyan.ErrTraceCorrupt) {
		t.Errorf("junk file: err=%v, want ErrTraceCorrupt", err)
	}
}

func TestFacadeAGC(t *testing.T) {
	cfg := saiyan.DefaultConfig()
	demod, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := saiyan.NewRand(8, 8)
	frame, err := saiyan.NewFrame(cfg.Params, []int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rss := saiyan.DefaultLinkBudget().RSSDBm(70)
	got, detected, err := demod.ProcessFrameAuto(frame, rss, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("AGC path did not detect at 70 m")
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d symbols, want 3", len(got))
	}
}

func TestFacadeStream(t *testing.T) {
	// Render a continuous capture through the facade and demodulate it from
	// raw samples; both the convenience driver and the explicit
	// NewStreamSource + Pipeline.Run wiring must recover every frame.
	tags, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), 3, 20, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := saiyan.RenderTimeline(tags, saiyan.DefaultConfig(), saiyan.TimelineConfig{FramesPerTag: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capture.Events) != 6 || len(capture.Env) == 0 {
		t.Fatalf("capture: %d events, %d samples", len(capture.Events), len(capture.Env))
	}

	pcfg := saiyan.DefaultPipelineConfig()
	pcfg.Seed = 7
	pcfg.Workers = 2
	pcfg.DiscardResults = true
	scfg := saiyan.StreamConfig{Demod: saiyan.DefaultConfig(), Seed: 7}
	st, err := saiyan.DemodulateStream(context.Background(), pcfg, scfg, capture, 200)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesScheduled != 6 {
		t.Fatalf("scheduled %d frames, want 6", st.FramesScheduled)
	}
	if st.Recovery() < 0.95 {
		t.Errorf("recovery %.2f (%d windows, %d matched), want >= 0.95",
			st.Recovery(), st.WindowsEmitted, st.WindowsMatched)
	}

	// Explicit wiring: the segmenting source feeds the pipeline directly.
	src, err := saiyan.NewStreamSource(scfg, capture, 200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := saiyan.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := p.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if manual.FramesOut != st.FramesOut || manual.FramesCorrect != st.FramesCorrect ||
		manual.SymbolErrs != st.SymbolErrs {
		t.Errorf("explicit wiring diverged from DemodulateStream:\ndriver: %v\nmanual: %v", st.Stats, manual)
	}
}

func TestFacadeGateway(t *testing.T) {
	cfg := saiyan.DefaultGatewayConfig()
	cfg.Seed = 11
	cfg.Workers = 2
	cfg.Channels = 2
	cfg.Tags = 4
	cfg.FramesPerTag = 1
	cfg.Degrade = []saiyan.GatewayDegradation{{Epoch: 1, Channel: 1, AttenDB: 10}}
	g, err := saiyan.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := g.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d epoch reports, want 3", len(reports))
	}
	snap := g.Snapshot()
	if snap.Epochs != 3 || snap.TagsActive != 4 {
		t.Fatalf("snapshot: epochs=%d tags=%d, want 3/4", snap.Epochs, snap.TagsActive)
	}
	if snap.FramesScheduled == 0 || snap.DeliveryRatio() <= 0 {
		t.Fatalf("gateway delivered nothing: %v", snap)
	}
	if len(snap.Sessions) != 4 || len(snap.Channels) != 2 {
		t.Fatalf("snapshot carries %d sessions / %d channels, want 4 / 2", len(snap.Sessions), len(snap.Channels))
	}
	if snap.Channels[1].AttenDB != 10 {
		t.Errorf("channel 1 attenuation %g, want 10", snap.Channels[1].AttenDB)
	}
}
