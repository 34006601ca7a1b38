package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

const testSeed = 20220404

// testTraffic builds nTags tags and frames rounds of one frame per tag,
// returning the jobs in submission order.
func testTraffic(t testing.TB, nTags, rounds int) []Job {
	t.Helper()
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), nTags, 20, 120, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for r := 0; r < rounds; r++ {
		for _, tag := range ts.Tags {
			frame, want, err := ts.Frame(tag.ID, uint64(r))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, Job{Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want})
		}
	}
	return jobs
}

// runPipeline feeds jobs through a pipeline in batches of batchSize and
// returns every result plus the final stats.
func runPipeline(t testing.TB, cfg Config, jobs []Job, batchSize int) ([]Result, Stats) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range p.Results() {
			results = append(results, r)
		}
	}()
	for at := 0; at < len(jobs); at += batchSize {
		hi := at + batchSize
		if hi > len(jobs) {
			hi = len(jobs)
		}
		if err := p.Submit(jobs[at:hi]...); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Drain()
	wg.Wait()
	return results, st
}

// signature flattens results into a worker-count-independent fingerprint.
func signature(results []Result) string {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	s := ""
	for _, r := range sorted {
		s += fmt.Sprintf("%d:%d:%v:%v:%d;", r.Seq, r.Tag, r.Detected, r.Symbols, r.SymbolErrs)
	}
	return s
}

// TestDeterministicAcrossWorkerCounts is the pipeline's core contract: for
// a fixed seed the decoded symbol stream is byte-identical whether one
// worker or eight demodulate it, in every demod mode and on both
// datapaths.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testTraffic(t, 6, 2)
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeFreqShift, core.ModeFull} {
		for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
			t.Run(fmt.Sprintf("%v/%v", mode, dp), func(t *testing.T) {
				var sigs []string
				var cycles []uint64
				for _, workers := range []int{1, 4, 8} {
					cfg := DefaultConfig()
					cfg.Seed = testSeed
					cfg.Workers = workers
					cfg.Demod.Mode = mode
					cfg.Demod.Datapath = dp
					results, st := runPipeline(t, cfg, jobs, 4)
					if got, want := len(results), len(jobs); got != want {
						t.Fatalf("workers=%d: %d results, want %d", workers, got, want)
					}
					if st.FramesOut != uint64(len(jobs)) {
						t.Fatalf("workers=%d: FramesOut=%d, want %d", workers, st.FramesOut, len(jobs))
					}
					sigs = append(sigs, signature(results))
					cycles = append(cycles, st.FxpCycles)
				}
				if sigs[0] != sigs[1] || sigs[0] != sigs[2] {
					t.Errorf("symbol streams differ across worker counts:\n1 worker: %s\n4 workers: %s\n8 workers: %s",
						sigs[0], sigs[1], sigs[2])
				}
				if cycles[0] != cycles[1] || cycles[0] != cycles[2] {
					t.Errorf("fxp cycle ledgers differ across worker counts: %v", cycles)
				}
			})
		}
	}
}

// TestPrecalibrateMatchesLazy verifies warming the threshold table up
// front changes nothing about the decoded stream.
func TestPrecalibrateMatchesLazy(t *testing.T) {
	jobs := testTraffic(t, 4, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 2
	lazy, _ := runPipeline(t, cfg, jobs, 4)

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		p.Precalibrate(j.RSSDBm)
	}
	if st := p.Stats(); st.Elapsed != 0 {
		t.Errorf("throughput clock started during Precalibrate: %v", st.Elapsed)
	}
	var warm []Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range p.Results() {
			warm = append(warm, r)
		}
	}()
	if err := p.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	<-done
	if signature(lazy) != signature(warm) {
		t.Error("precalibrated pipeline decoded a different stream than lazy calibration")
	}
}

// TestDecodesCloseRangeTraffic checks end-to-end quality: at gateway-near
// distances the aggregate PRR must be essentially perfect.
func TestDecodesCloseRangeTraffic(t *testing.T) {
	jobs := testTraffic(t, 4, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 2
	results, st := runPipeline(t, cfg, jobs, 4)
	if st.PRR() < 0.9 {
		t.Errorf("close-range PRR = %.2f, want >= 0.9 (%v)", st.PRR(), st)
	}
	if st.DetectRate() < 0.9 {
		t.Errorf("close-range detect rate = %.2f, want >= 0.9", st.DetectRate())
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("frame %d: %v", r.Seq, r.Err)
		}
	}
}

// TestStatsAccounting cross-checks the aggregate counters against the
// per-frame results.
func TestStatsAccounting(t *testing.T) {
	jobs := testTraffic(t, 5, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 4
	results, st := runPipeline(t, cfg, jobs, 3)

	if st.FramesIn != uint64(len(jobs)) || st.FramesOut != uint64(len(jobs)) {
		t.Errorf("FramesIn/Out = %d/%d, want %d", st.FramesIn, st.FramesOut, len(jobs))
	}
	if st.FramesChecked != uint64(len(jobs)) {
		t.Errorf("FramesChecked = %d, want %d (every job carried ground truth)", st.FramesChecked, len(jobs))
	}
	var detected, correct, symErrs, syms uint64
	for _, r := range results {
		if r.Detected {
			detected++
		}
		if r.SymbolErrs == 0 {
			correct++
		}
		if r.SymbolErrs > 0 {
			symErrs += uint64(r.SymbolErrs)
		}
		syms += uint64(lora.DefaultPayloadSymbols)
	}
	if st.FramesDetected != detected {
		t.Errorf("FramesDetected = %d, results say %d", st.FramesDetected, detected)
	}
	if st.FramesCorrect != correct {
		t.Errorf("FramesCorrect = %d, results say %d", st.FramesCorrect, correct)
	}
	if st.SymbolErrs != symErrs {
		t.Errorf("SymbolErrs = %d, results say %d", st.SymbolErrs, symErrs)
	}
	if st.Symbols != syms {
		t.Errorf("Symbols = %d, results say %d", st.Symbols, syms)
	}
	if st.SimSamples == 0 {
		t.Error("SimSamples = 0, want > 0")
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed <= 0")
	}
	if st.FramesPerSec() <= 0 || st.MSamplesPerSec() <= 0 {
		t.Errorf("throughput not positive: %v", st)
	}
	if st.String() == "" {
		t.Error("empty Stats string")
	}
}

// TestStatsElapsedSemantics pins the two-phase contract of the Stats
// clock: before Drain, Elapsed is LIVE (it advances between calls, so a
// mid-run snapshot prices throughput against wall time so far); after
// Drain it is FROZEN at the submit-to-drain span, and every later call
// returns the identical value.
func TestStatsElapsedSemantics(t *testing.T) {
	jobs := testTraffic(t, 3, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 2
	cfg.DiscardResults = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Elapsed != 0 {
		t.Errorf("clock running before the first Submit: %v", st.Elapsed)
	}
	if err := p.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	live1 := p.Stats().Elapsed
	if live1 <= 0 {
		t.Fatalf("clock not started by Submit: %v", live1)
	}
	time.Sleep(5 * time.Millisecond)
	if live2 := p.Stats().Elapsed; live2 <= live1 {
		t.Errorf("pre-Drain clock is not live: %v then %v", live1, live2)
	}
	final := p.Drain()
	frozen1 := p.Stats().Elapsed
	time.Sleep(5 * time.Millisecond)
	frozen2 := p.Stats().Elapsed
	if frozen1 != final.Elapsed || frozen2 != final.Elapsed {
		t.Errorf("post-Drain clock moved: Drain=%v then %v, %v", final.Elapsed, frozen1, frozen2)
	}
}

// TestDrainGraceful verifies Drain flushes in-flight batches, closes
// Results, freezes the clock, and stays idempotent; Submit afterwards
// fails with ErrDrained.
func TestDrainGraceful(t *testing.T) {
	jobs := testTraffic(t, 3, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 1 // a two-batch queue: six single-job submits exercise backpressure
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range p.Results() {
			results = append(results, r)
		}
	}()
	for _, j := range jobs {
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Drain()
	<-done
	if st.FramesOut != uint64(len(jobs)) {
		t.Errorf("Drain lost frames: FramesOut=%d, want %d", st.FramesOut, len(jobs))
	}
	if len(results) != len(jobs) {
		t.Errorf("Results delivered %d frames, want %d", len(results), len(jobs))
	}
	if err := p.Submit(jobs[0]); err != ErrDrained {
		t.Errorf("Submit after Drain: err=%v, want ErrDrained", err)
	}
	again := p.Drain()
	if again.Elapsed != st.Elapsed {
		t.Errorf("second Drain moved the clock: %v vs %v", again.Elapsed, st.Elapsed)
	}
}

// TestDiscardResults verifies the stats-only mode never blocks on an
// unread Results channel.
func TestDiscardResults(t *testing.T) {
	jobs := testTraffic(t, 3, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 1 // a four-frame Results buffer, smaller than the six jobs
	cfg.DiscardResults = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	st := p.Drain()
	if st.FramesOut != uint64(len(jobs)) {
		t.Errorf("FramesOut=%d, want %d", st.FramesOut, len(jobs))
	}
	if _, ok := <-p.Results(); ok {
		t.Error("DiscardResults pipeline delivered a result")
	}
}

// TestNilFrameSurfacesError verifies a broken job reports an error instead
// of wedging a worker.
func TestNilFrameSurfacesError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 1
	results, st := runPipeline(t, cfg, []Job{{Tag: 7}}, 1)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("nil frame: results=%v, want one error result", results)
	}
	if st.FramesOut != 1 {
		t.Errorf("FramesOut=%d, want 1", st.FramesOut)
	}
}

// TestConfigValidation exercises the constructor's rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: -1},
		{CalibrationQuantumDB: -1},
	}
	for i, cfg := range bad {
		cfg.Demod = DefaultConfig().Demod
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	cfg := DefaultConfig()
	cfg.Demod.Oversample = 1 // invalid demodulator config
	if _, err := New(cfg); err == nil {
		t.Error("invalid demodulator config accepted")
	}
}
