package core

import (
	"fmt"
	"testing"

	"saiyan/internal/dsp"
)

// TestProcessFrameScratchAllocs pins the per-frame hot path's allocation
// budget: once its FrameScratch and the demodulator's own scratch are warm,
// a noisy frame renders, detects, and decodes with one allocation in every
// mode and on both datapaths — the returned symbol slice, which the caller
// owns by contract. The render chain itself (antenna, fused noise/mix/detect
// pass, flicker noise, IF filter, video filter) and preamble detection
// allocate nothing.
func TestProcessFrameScratchAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		for _, dp := range []Datapath{DatapathFloat, DatapathFixed} {
			t.Run(fmt.Sprintf("%v/%v", mode, dp), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.Datapath = dp
				d, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				d.Calibrate(-60, dsp.NewRand(1, 2))
				frame := cloneTestFrames(t, cfg.Params, 1)[0]
				rng := dsp.NewRand(3, 4)
				sc := &FrameScratch{}
				detected := false
				allocs := testing.AllocsPerRun(10, func() {
					var err error
					if _, detected, err = d.ProcessFrameScratch(frame, -60, rng, sc); err != nil {
						t.Fatal(err)
					}
				})
				if !detected {
					t.Fatal("frame at -60 dBm not detected: the pin would not cover decode")
				}
				if allocs != 1 {
					t.Errorf("%v allocations per warm frame, want 1 (the returned symbols)", allocs)
				}
			})
		}
	}
}
