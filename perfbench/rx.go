package main

import (
	"fmt"
	"time"

	"saiyan/internal/core"
	"saiyan/internal/obs"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
	"saiyan/internal/stream"
)

// rxBench demodulates pre-rendered multi-tag captures, one per downlink
// rate K, through a fresh stream.Source and pipeline.Pipeline per pass,
// with the fixed-point (Q1.15 MCU) decoder: the receiver alone, with the
// world's render cost left in set-up.
type rxBench struct {
	rc       runConfig
	captures []*rxCapture
	rendered int     // frames rendered by every set-up so far
	last     *rxPass // the last phase's passes, summed
}

// rxCapture is one rate's capture and its reference decode.
type rxCapture struct {
	k      int
	stream *sim.Stream
	chunks []sim.Chunk
	demod  core.Config // decode configuration
	ref    rxPass
}

// rxPass is one capture demodulated once.
type rxPass struct {
	wall      time.Duration
	life      time.Duration // pipeline.New to Drain's return
	out       int64         // windows decoded
	detected  int64
	correct   int64
	errs      int
	digest    uint64
	cycles    uint64
	windows   int
	matched   int
	samplesIn int64
	frameMS   []float64
}

func newRxBench(rc runConfig) bench { return &rxBench{rc: rc} }

// sizes: tags spread near to far, frames per tag, every n-th frame
// scheduled as a collision.
func (b *rxBench) sizes() (tags, frames, overlap int) {
	if b.rc.small {
		return 2, 1, 0
	}
	return 12, 10, 8
}

func (b *rxBench) setup(tr *Tracer) error {
	tags, frames, overlap := b.sizes()
	root := tr.Begin("setup.render", spanRef{}, 0)
	defer root.End()
	b.captures = b.captures[:0]
	for k := 1; k <= 3; k++ {
		cfg := core.DefaultConfig()
		cfg.Params.K = k
		ts, err := sim.NewTagSet(cfg.Params, radio.DefaultLinkBudget(), tags, 20, 100, b.rc.seed)
		if err != nil {
			return err
		}
		sp := tr.Begin("sim.TagSet.RenderTimeline", root, uint64(k))
		capture, err := ts.RenderTimeline(cfg, sim.TimelineConfig{FramesPerTag: frames, OverlapEvery: overlap})
		sp.End()
		if err != nil {
			return err
		}
		b.rendered += len(capture.Events)
		// The capture renders through the default chain, as a deployed
		// receiver's front end produces it; only the decode is fixed-point.
		cfg.Datapath = core.DatapathFixed
		cfg.ADCBits = 12
		b.captures = append(b.captures, &rxCapture{k: k, stream: capture, chunks: capture.Chunks(256), demod: cfg})
	}
	return nil
}

// pass demodulates one capture: segmentation on this goroutine, decode on
// the worker pool, results drained concurrently.
func (b *rxBench) pass(c *rxCapture, workers int, tr *Tracer, reg *obs.Registry, id uint64) (rxPass, error) {
	t0 := time.Now()
	root := tr.Begin("rx.pass", spanRef{}, id)
	defer root.End()
	scfg := stream.Config{Demod: c.demod, PayloadSymbols: c.stream.PayloadSymbols, Seed: b.rc.seed, Metrics: reg}
	sp := tr.Begin("stream.NewSource", root, id)
	src, err := stream.NewSource(scfg, c.chunks, stream.SimMatcher(c.stream))
	sp.End()
	if err != nil {
		return rxPass{}, err
	}
	born := time.Now()
	sp = tr.Begin("pipeline.New", root, id)
	p, err := pipeline.New(pipeline.Config{Demod: c.demod, Workers: workers, Seed: b.rc.seed, Metrics: reg})
	sp.End()
	if err != nil {
		return rxPass{}, err
	}
	col := collect(p, tr, id)
	submitted, srcErr := submitAll(p, src, tr, root, id, "stream.Source.Next")
	sp = tr.Begin("pipeline.Drain", root, id)
	st := p.Drain()
	sp.End()
	col.wait()
	if srcErr != nil {
		return rxPass{}, fmt.Errorf("K=%d: %w", c.k, srcErr)
	}
	return rxPass{
		wall:      time.Since(t0),
		life:      time.Since(born),
		out:       int64(st.FramesOut),
		detected:  int64(st.FramesDetected),
		correct:   int64(st.FramesCorrect),
		errs:      col.errs(),
		digest:    col.digest(),
		cycles:    st.FxpCycles,
		windows:   src.Windows(),
		matched:   src.Matched(),
		samplesIn: src.SamplesIn(),
		frameMS:   col.latenciesMS(submitted),
	}, nil
}

// check decodes every capture at one worker: the reference each timed
// pass, at the benchmark's worker count, must reproduce exactly.
func (b *rxBench) check() []string {
	var errs []string
	for _, c := range b.captures {
		ref, err := b.pass(c, 1, nil, nil, 0)
		if err != nil {
			errs = append(errs, fmt.Sprintf("reference pass: %v", err))
			continue
		}
		if ref.cycles == 0 {
			errs = append(errs, fmt.Sprintf("K=%d: fixed-point decode counted no MCU cycles", c.k))
		}
		c.ref = ref
	}
	return errs
}

func (b *rxBench) run(done stopRule, tr *Tracer, reg *obs.Registry) (*phase, error) {
	ph := newPhase()
	agg := &rxPass{}
	for id := uint64(1); !done(ph); {
		// A round is one pass over every capture, so ok_ratio and every
		// slice cover the rates equally.
		var frames int64
		for _, c := range b.captures {
			ps, err := b.pass(c, b.rc.workers, tr, reg, id)
			id++
			if err != nil {
				// A source or segmentation error fails the pass.
				ph.attempted++
				ph.failed++
				ph.fail("K=%d pass %d: %v", c.k, id-1, err)
				continue
			}
			frames += ps.out
			ph.epochMS = append(ph.epochMS, float64(ps.wall)/1e6)
			ph.frameMS = append(ph.frameMS, ps.frameMS...)
			ph.attempted += ps.out
			ph.failed += int64(ps.errs)
			ph.okNum += float64(ps.correct)
			ph.okDen += float64(len(c.stream.Events))
			if ps.digest != c.ref.digest || ps.cycles != c.ref.cycles || ps.windows != c.ref.windows {
				ph.failed += ps.out
				ph.fail("K=%d pass %d: decoded stream differs from the 1-worker reference (digest %x/%x cycles %d/%d windows %d/%d)",
					c.k, id-1, ps.digest, c.ref.digest, ps.cycles, c.ref.cycles, ps.windows, c.ref.windows)
			}
			agg.life += ps.life
			agg.out += ps.out
			agg.detected += ps.detected
			agg.windows += ps.windows
			agg.matched += ps.matched
			agg.samplesIn += ps.samplesIn
		}
		ph.round(frames)
	}
	ph.finish()
	b.last = agg
	return ph, nil
}

func (b *rxBench) layers(ph *phase, tr *Tracer, reg *obs.Registry) map[string]float64 {
	a := b.last
	render := tr.Total("sim.TagSet.RenderTimeline")
	next := tr.Total("stream.Source.Next")
	newSrc := tr.Total("stream.NewSource")
	newP := tr.Total("pipeline.New")
	submit := tr.Total("pipeline.Submit")
	drain := tr.Total("pipeline.Drain")
	m := pipelineLayers(reg, b.rc.workers, a.life)
	m["sim.render_us_per_frame"] = ratio(float64(render.Total)/1e3, float64(b.rendered))
	m["stream.segment_ns_per_sample"] = ratio(float64(next.Total), float64(a.samplesIn))
	m["stream.source_new_ms"] = ratio(float64(newSrc.Total)/1e6, float64(newSrc.Count))
	m["stream.match_ratio"] = ratio(float64(a.matched), float64(a.windows))
	m["pipeline.new_ms"] = ratio(float64(newP.Total)/1e6, float64(newP.Count))
	m["pipeline.submit_wait_us_per_frame"] = ratio(float64(submit.Total)/1e3, float64(a.out))
	m["pipeline.drain_ms"] = ratio(float64(drain.Total)/1e6, float64(drain.Count))
	m["pipeline.detect_ratio"] = ratio(float64(a.detected), float64(a.out))
	var cycles uint64
	var frames int64
	for _, c := range b.captures {
		cycles += c.ref.cycles
		frames += c.ref.out
	}
	m["fxp.cycles_total"] = float64(cycles)
	m["fxp.mcu_cycles_per_frame"] = ratio(float64(cycles), float64(frames))
	return zeroLayers(m)
}

// pipelineLayers reads the pipeline's exported series: mean decode time
// per frame, worker busy share of the pipelines' lifetime, and scratch
// pool misses per checkout.
func pipelineLayers(reg *obs.Registry, workers int, life time.Duration) map[string]float64 {
	decode := findMetric(reg, "saiyan_pipeline_decode_seconds")
	batch := findMetric(reg, "saiyan_pipeline_batch_seconds")
	gets := findMetric(reg, "saiyan_pipeline_scratch_gets_total").Value
	misses := findMetric(reg, "saiyan_pipeline_scratch_misses_total").Value
	return map[string]float64{
		"pipeline.decode_us_per_frame": ratio(decode.Sum*1e6, float64(decode.Count)),
		"pipeline.worker_busy_ratio":   ratio(batch.Sum, float64(workers)*life.Seconds()),
		"pipeline.scratch_miss_ratio":  ratio(misses, gets),
	}
}
