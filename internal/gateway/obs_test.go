package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/obs"
)

// TestSnapshotDeterminismWithMetrics pins the observability contract from
// Config.Metrics: the registry is write-only, so attaching one must not
// perturb a single decode, command draw, or session counter. The marshaled
// Snapshot must stay byte-identical across metrics on/off and at 1, 4 and
// 8 workers (which also bound how many capture groups render at once), in
// every demod mode and on both datapaths. The default chain (ModeFull,
// float) runs every worker × metrics combination; metrics invariance does
// not depend on the chain, so the other cells attach a registry at 4
// workers only.
func TestSnapshotDeterminismWithMetrics(t *testing.T) {
	type variant struct {
		workers int
		metrics bool
	}
	every := []variant{{1, true}, {4, false}, {4, true}, {8, false}, {8, true}}
	thin := []variant{{4, true}, {8, false}}
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeFreqShift, core.ModeFull} {
		for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
			variants := thin
			if mode == core.ModeFull && dp == core.DatapathFloat {
				variants = every
			}
			t.Run(fmt.Sprintf("%v/%v", mode, dp), func(t *testing.T) {
				baseline := snapshotJSON(t, mode, dp, 1, nil)
				for _, v := range variants {
					snapshotMatches(t, mode, dp, v.workers, v.metrics, baseline)
				}
			})
		}
	}
}

const determinismEpochs = 6

// snapshotJSON serves the acceptance deployment on the given chain and
// returns its marshaled Snapshot.
func snapshotJSON(t *testing.T, mode core.Mode, dp core.Datapath, workers int, reg *obs.Registry) []byte {
	t.Helper()
	cfg := acceptanceConfig(workers)
	cfg.Demod.Mode = mode
	cfg.Demod.Datapath = dp
	cfg.Metrics = reg
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), determinismEpochs); err != nil {
		t.Fatalf("workers=%d metrics=%v: %v", workers, reg != nil, err)
	}
	b, err := json.Marshal(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshotMatches reruns the deployment at workers, with a registry when
// withMetrics, and checks the snapshot against baseline and the registry
// against the run it watched.
func snapshotMatches(t *testing.T, mode core.Mode, dp core.Datapath, workers int, withMetrics bool, baseline []byte) {
	t.Helper()
	var reg *obs.Registry
	if withMetrics {
		reg = obs.NewRegistry()
	}
	got := snapshotJSON(t, mode, dp, workers, reg)
	if string(got) != string(baseline) {
		t.Errorf("workers=%d metrics=%v: snapshot diverged from workers=1 metrics=off:\nbase: %s\ngot:  %s",
			workers, withMetrics, baseline, got)
	}
	if !withMetrics {
		return
	}
	// The registry must actually have watched the run: the epoch
	// counter and at least one pipeline-side series are live.
	dump := reg.Snapshot()
	series := make(map[string]obs.MetricSnapshot, len(dump))
	for _, m := range dump {
		series[m.Name] = m
	}
	if got := series["saiyan_gateway_epochs_total"].Value; got != determinismEpochs {
		t.Errorf("workers=%d: saiyan_gateway_epochs_total = %v, want %d", workers, got, determinismEpochs)
	}
	if got := series["saiyan_pipeline_frames_total"].Value; got <= 0 {
		t.Errorf("workers=%d: saiyan_pipeline_frames_total = %v, want > 0", workers, got)
	}
	var sawStage bool
	for name := range series {
		if strings.HasPrefix(name, "saiyan_gateway_stage_seconds") {
			sawStage = true
		}
	}
	if !sawStage {
		t.Errorf("workers=%d: no saiyan_gateway_stage_seconds series registered", workers)
	}
}
