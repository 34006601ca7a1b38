package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"saiyan/internal/core"
	"saiyan/internal/obs"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
	"saiyan/internal/trace"
)

// replayBench records a seeded trace in set-up and replays it through
// the trace codec and the frame-mode pipeline, checking every decode
// against the decision recorded with it.
type replayBench struct {
	rc        runConfig
	path      string
	raw       []byte     // the recorded file, to pin repeated set-ups
	decisions []decision // recorded decisions, by sequence number
	setupErrs []string
	last      *rxPass
}

// decision is what the recording run decoded for one record.
type decision struct {
	detected   bool
	hasDecoded bool
	decoded    []uint16
}

func newReplayBench(rc runConfig) bench {
	return &replayBench{rc: rc, path: filepath.Join(rc.workDir, fmt.Sprintf("trace-replay-seed%d.trace.gz", rc.seed))}
}

func (b *replayBench) sizes() (tags, frames int) {
	if b.rc.small {
		return 2, 1
	}
	return 16, 8
}

// setup records the trace through pipeline.Record at one worker and loads
// its decisions; the timed replays run at the benchmark's worker count,
// so every replay also checks the decisions across worker counts.
func (b *replayBench) setup(tr *Tracer) error {
	tags, frames := b.sizes()
	cfg := core.DefaultConfig()
	ts, err := sim.NewTagSet(cfg.Params, radio.DefaultLinkBudget(), tags, 20, 150, b.rc.seed)
	if err != nil {
		return err
	}
	src, err := pipeline.NewTagSetSource(ts, frames)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.rc.workDir, 0o755); err != nil {
		return err
	}
	p, err := pipeline.New(pipeline.Config{Demod: cfg, Workers: 1, Seed: b.rc.seed, DiscardResults: true})
	if err != nil {
		return err
	}
	w, err := trace.Create(b.path, p.TraceHeader())
	if err != nil {
		p.Drain()
		return err
	}
	if err := p.Record(w, false); err != nil {
		p.Drain()
		w.Abort()
		return err
	}
	sp := tr.Begin("pipeline.Record", spanRef{}, 0)
	_, err = p.Run(context.Background(), src)
	sp.End()
	if err != nil {
		w.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	raw, err := os.ReadFile(b.path)
	if err != nil {
		return err
	}
	if b.raw != nil && !bytes.Equal(raw, b.raw) {
		b.setupErrs = append(b.setupErrs, "repeated recordings of one seed differ")
	}
	b.raw = raw
	r, err := trace.Open(b.path)
	if err != nil {
		return err
	}
	defer r.Close()
	b.decisions = b.decisions[:0]
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if rec.Seq != uint64(len(b.decisions)) {
			return fmt.Errorf("record %d out of sequence at %d", rec.Seq, len(b.decisions))
		}
		b.decisions = append(b.decisions, decision{detected: rec.Detected, hasDecoded: rec.HasDecoded, decoded: rec.Decoded})
	}
	return nil
}

// replayPass is one replay plus its decision check.
type replayPass struct {
	rxPass
	records    int
	checked    int64
	mismatches int // results with an error or a decision differing from the recording
}

// pass opens the trace and replays every record through a fresh
// pipeline built from the trace header.
func (b *replayBench) pass(tr *Tracer, reg *obs.Registry, id uint64) (replayPass, error) {
	t0 := time.Now()
	root := tr.Begin("replay.pass", spanRef{}, id)
	defer root.End()
	sp := tr.Begin("trace.Open", root, id)
	r, err := trace.Open(b.path)
	sp.End()
	if err != nil {
		return replayPass{}, err
	}
	defer r.Close()
	src := pipeline.NewTraceSource(r)
	pcfg := pipeline.ConfigFromHeader(r.Header())
	pcfg.Workers = b.rc.workers
	pcfg.Metrics = reg
	born := time.Now()
	sp = tr.Begin("pipeline.New", root, id)
	p, err := pipeline.New(pcfg)
	sp.End()
	if err != nil {
		return replayPass{}, err
	}
	col := collect(p, tr, id)
	submitted, srcErr := submitAll(p, src, tr, root, id, "trace.Source.Next")
	sp = tr.Begin("pipeline.Drain", root, id)
	st := p.Drain()
	sp.End()
	col.wait()
	if srcErr != nil {
		return replayPass{}, srcErr
	}
	ps := replayPass{
		rxPass: rxPass{
			wall:     time.Since(t0),
			life:     time.Since(born),
			out:      int64(st.FramesOut),
			detected: int64(st.FramesDetected),
			correct:  int64(st.FramesCorrect),
			frameMS:  col.latenciesMS(submitted),
		},
		records: len(submitted),
		checked: int64(st.FramesChecked),
	}
	for _, res := range col.results {
		if res.Err != nil || res.Seq >= uint64(len(b.decisions)) || !b.decisions[res.Seq].matches(res) {
			ps.mismatches++
		}
	}
	return ps, nil
}

// matches reports whether a replayed result reproduces the recorded
// decision bit-exactly.
func (d decision) matches(res pipeline.Result) bool {
	if !d.hasDecoded {
		return true
	}
	if res.Err != nil || res.Detected != d.detected || len(res.Symbols) != len(d.decoded) {
		return false
	}
	for i, s := range res.Symbols {
		if uint16(s) != d.decoded[i] {
			return false
		}
	}
	return true
}

// gate checks one pass: every record replayed, every decision matched.
func (b *replayBench) gate(ps replayPass) []string {
	var errs []string
	if ps.records != len(b.decisions) {
		errs = append(errs, fmt.Sprintf("replayed %d of %d records", ps.records, len(b.decisions)))
	}
	if ps.mismatches > 0 {
		errs = append(errs, fmt.Sprintf("%d decodes failed or differ from the recorded decisions", ps.mismatches))
	}
	return errs
}

func (b *replayBench) check() []string { return b.setupErrs }

func (b *replayBench) run(done stopRule, tr *Tracer, reg *obs.Registry) (*phase, error) {
	ph := newPhase()
	agg := &rxPass{}
	for id := uint64(1); !done(ph); id++ {
		ps, err := b.pass(tr, reg, id)
		if err != nil {
			// A trace read or submission error fails the replay.
			ph.attempted++
			ph.failed++
			ph.fail("replay %d: %v", id, err)
			continue
		}
		ph.epochMS = append(ph.epochMS, float64(ps.wall)/1e6)
		ph.frameMS = append(ph.frameMS, ps.frameMS...)
		ph.round(ps.out)
		ph.attempted += int64(len(b.decisions))
		ph.failed += int64(ps.mismatches)
		ph.okNum += float64(ps.correct)
		ph.okDen += float64(ps.checked)
		for _, e := range b.gate(ps) {
			ph.fail("replay %d: %s", id, e)
		}
		agg.life += ps.life
		agg.out += ps.out
		agg.detected += ps.detected
	}
	ph.finish()
	b.last = agg
	return ph, nil
}

func (b *replayBench) layers(ph *phase, tr *Tracer, reg *obs.Registry) map[string]float64 {
	a := b.last
	open := tr.Total("trace.Open")
	next := tr.Total("trace.Source.Next")
	newP := tr.Total("pipeline.New")
	submit := tr.Total("pipeline.Submit")
	drain := tr.Total("pipeline.Drain")
	m := pipelineLayers(reg, b.rc.workers, a.life)
	m["trace.open_ms"] = ratio(float64(open.Total)/1e6, float64(open.Count))
	m["trace.read_us_per_record"] = ratio(float64(next.Total)/1e3, float64(next.Count))
	m["pipeline.new_ms"] = ratio(float64(newP.Total)/1e6, float64(newP.Count))
	m["pipeline.submit_wait_us_per_frame"] = ratio(float64(submit.Total)/1e3, float64(a.out))
	m["pipeline.drain_ms"] = ratio(float64(drain.Total)/1e6, float64(drain.Count))
	m["pipeline.detect_ratio"] = ratio(float64(a.detected), float64(a.out))
	return zeroLayers(m)
}
