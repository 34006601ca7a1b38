package main

import (
	"time"

	"saiyan/internal/obs"
)

// stageNames are the gateway's exported epoch stages (the
// saiyan_gateway_stage_seconds{stage=...} histograms), nested as
// epoch ⊃ {ingest ⊃ {render, decode}, control}.
var stageNames = []string{"render", "decode", "ingest", "control", "epoch"}

// findMetric returns the named series of reg's snapshot (zero if absent).
func findMetric(reg *obs.Registry, name string) obs.MetricSnapshot {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m
		}
	}
	return obs.MetricSnapshot{}
}

// stages reads the gateway's stage histograms as self-time rows under
// the stage names. Self time follows the stage nesting: ingest minus
// render and decode, epoch minus ingest and control.
func stages(reg *obs.Registry) map[string]layerRow {
	st := make(map[string]layerRow, len(stageNames))
	for _, name := range stageNames {
		m := findMetric(reg, `saiyan_gateway_stage_seconds{stage="`+name+`"}`)
		total := time.Duration(m.Sum * float64(time.Second))
		st[name] = layerRow{Name: name, Count: int(m.Count), Total: total, Self: total}
	}
	ingest := st["ingest"]
	ingest.Self -= st["render"].Total + st["decode"].Total
	st["ingest"] = ingest
	epoch := st["epoch"]
	epoch.Self -= st["ingest"].Total + st["control"].Total
	st["epoch"] = epoch
	return st
}

// zeroLayers completes a workload's per-layer map with 0 for every layer
// metric the workload does not exercise.
func zeroLayers(m map[string]float64) map[string]float64 {
	for _, spec := range perLayer {
		if _, ok := m[spec.Name]; !ok {
			m[spec.Name] = 0
		}
	}
	return m
}
