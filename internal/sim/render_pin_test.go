package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"saiyan/internal/core"
)

// streamDigest is a short SHA-256 of a capture's envelope bits: Env, then
// EnvC.
func streamDigest(s *Stream) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range [][]float64{s.Env, s.EnvC} {
		for _, f := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRenderTimelineBytesPinned pins the exact bytes of a continuous
// capture in every mode: three tags, two frames each, one scheduled
// collision and one retransmission at the tail. The digests were recorded
// before the render chain moved to a real antenna signal and one fused
// noise/mix/detect pass; any change to them changes every stream decode.
func TestRenderTimelineBytesPinned(t *testing.T) {
	want := map[core.Mode]string{
		core.ModeVanilla:   "2e25ea07e423f9de",
		core.ModeFreqShift: "cc68879d9d036f1f",
		core.ModeFull:      "2b035d6517940bc7",
	}
	ts := testTagSet(t, 3)
	tl := TimelineConfig{
		FramesPerTag: 2,
		OverlapEvery: 4,
		Retransmits:  []Retransmit{{Tag: 1, Seq: 0}},
	}
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeFreqShift, core.ModeFull} {
		cfg := core.DefaultConfig()
		cfg.Mode = mode
		s, err := ts.RenderTimeline(cfg, tl)
		if err != nil {
			t.Fatal(err)
		}
		collisions, retx := 0, 0
		for _, ev := range s.Events {
			if ev.Collides {
				collisions++
			}
			if ev.Retransmitted {
				retx++
			}
		}
		if collisions != 1 || retx != 1 {
			t.Fatalf("%v: %d collisions and %d retransmits scheduled, want 1 and 1", mode, collisions, retx)
		}
		if got := streamDigest(s); got != want[mode] {
			t.Errorf("%v: capture digest %s (%d/%d samples), want %s", mode, got, len(s.Env), len(s.EnvC), want[mode])
		}
	}
}
