package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// decodeDigest runs capture through segmentation and a 2-worker pipeline
// and returns a short SHA-256 over every window's Detected flag and
// decoded symbols, in submission order, plus the fxp cycle total. The
// digest also covers the comparator thresholds each window's AGC derives
// (the same window decode re-run on a side demodulator), which the decoded
// symbols alone hide whenever the link margin absorbs a threshold change.
func decodeDigest(t *testing.T, demod core.Config, capture *sim.Stream) (string, uint64) {
	t.Helper()
	src, err := NewSource(Config{Demod: demod, Seed: testSeed}, capture.Chunks(128), SimMatcher(capture))
	if err != nil {
		t.Fatal(err)
	}
	agc, err := core.New(demod)
	if err != nil {
		t.Fatal(err)
	}
	agc.PrewarmAuto()
	var thresholds []float64
	p, err := pipeline.New(pipeline.Config{Demod: demod, Workers: 2, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	var results []pipeline.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range p.Results() {
			results = append(results, r)
		}
	}()
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := agc.DecodeStreamWindow(j.Env, j.EnvC, j.NSymbols); err != nil {
			t.Fatal(err)
		}
		thresholds = append(thresholds, agc.Thresholds().High, agc.Thresholds().Low)
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Drain()
	<-done
	if len(results) == 0 {
		t.Fatal("no windows decoded")
	}
	sort.Slice(results, func(i, k int) bool { return results[i].Seq < results[k].Seq })
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(b[:4], uint32(int32(v)))
		h.Write(b[:4])
	}
	for _, v := range thresholds {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("window %d: %v", r.Seq, r.Err)
		}
		detected := 0
		if r.Detected {
			detected = 1
		}
		put(detected)
		put(len(r.Symbols))
		for _, s := range r.Symbols {
			put(s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], st.FxpCycles
}

// TestStreamDecodePinned pins the decoded output of the continuous-capture
// receive path in every mode and datapath: three tags, two frames each, one
// scheduled collision, each capture rendered through its mode's own chain.
// Stream windows calibrate their thresholds from their own preamble
// (core.Demodulator.AutoCalibrate), so this is the byte oracle for the AGC
// path on both the float and the Q1.15 decoder.
func TestStreamDecodePinned(t *testing.T) {
	type pin struct {
		digest string
		cycles uint64
	}
	want := map[string]pin{
		"vanilla/float64":    {"288d9bb5a7a407c5", 0},
		"vanilla/fxp":        {"288d9bb5a7a407c5", 5296},
		"freq-shift/float64": {"41057bbe34936491", 0},
		"freq-shift/fxp":     {"41057bbe34936491", 5189},
		"full/float64":       {"163e4aafbd87fc47", 0},
		"full/fxp":           {"163e4aafbd87fc47", 57920},
	}
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 3, 20, 80, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	tl := sim.TimelineConfig{FramesPerTag: 2, OverlapEvery: 4}
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeFreqShift, core.ModeFull} {
		demod := core.DefaultConfig()
		demod.Mode = mode
		capture, err := ts.RenderTimeline(demod, tl)
		if err != nil {
			t.Fatal(err)
		}
		collisions := 0
		for _, ev := range capture.Events {
			if ev.Collides {
				collisions++
			}
		}
		if collisions != 1 {
			t.Fatalf("%v: %d collisions scheduled, want 1", mode, collisions)
		}
		for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
			demod.Datapath = dp
			name := fmt.Sprintf("%v/%v", mode, dp)
			digest, cycles := decodeDigest(t, demod, capture)
			if w := want[name]; digest != w.digest || cycles != w.cycles {
				t.Errorf("%s: decode digest %s, %d fxp cycles; want %s, %d", name, digest, cycles, w.digest, w.cycles)
			}
		}
	}
}
