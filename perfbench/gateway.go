package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"saiyan/internal/flight"
	"saiyan/internal/gateway"
	"saiyan/internal/health"
	"saiyan/internal/obs"
	"saiyan/internal/server"
)

// gatewayBench serves sessions of a fixed number of epochs: each session
// builds a gateway the way `saiyan serve -listen` does, serves it through
// server.Serve, and drains it with one loopback subscriber. Sessions are
// identical at a fixed seed, so every one must reproduce the reference:
// the same gateway run for the same epochs at one worker, without a
// server.
type gatewayBench struct {
	rc     runConfig
	epochs int

	// The reference: final snapshot JSON, and every epoch report as JSON
	// with its wall-clock Elapsed zeroed.
	ref        *gateway.Snapshot
	refSnap    []byte
	refReports [][]byte
	refFrames  []int // frames scheduled per epoch
	refDumps   int   // flight dumps the reference triggered
	setupErrs  []string

	last *gwPhase
}

func newGatewayBench(rc runConfig) bench {
	epochs := 10 // covers the epoch-2 degrade, joins at 3/6/9, the leave at 5
	if rc.small {
		epochs = 3
	}
	return &gatewayBench{rc: rc, epochs: epochs}
}

// gatewayConfig mirrors `saiyan serve -listen` with the benchmark's
// settings: 2 channels, 16 tags, 4 frames/tag, join 3, leave 5, mobility
// 0.02, degrade 2:0:12, chunk 256, flight recorder, health store.
func (b *gatewayBench) gatewayConfig(workers int, reg *obs.Registry) (gateway.Config, error) {
	cfg := gateway.DefaultConfig()
	cfg.Seed = b.rc.seed
	cfg.Workers = workers
	cfg.Channels = 2
	cfg.Tags = 16
	cfg.FramesPerTag = 4
	if b.rc.small {
		cfg.Tags, cfg.FramesPerTag = 4, 1
	}
	cfg.ChunkSamples = 256
	cfg.JoinEvery = 3
	cfg.LeaveEvery = 5
	cfg.MobilitySigma = 0.02
	cfg.Degrade = []gateway.Degradation{{Epoch: 2, Channel: 0, AttenDB: 12}}
	cfg.Metrics = reg
	cfg.Flight = flight.New(flight.Options{Shards: workers + 1})
	hs, err := health.New(health.Options{Rules: health.DefaultRules()})
	if err != nil {
		return cfg, err
	}
	cfg.Health = hs
	return cfg, nil
}

// reportJSON is an epoch report without its wall-clock field, the form
// in which reports are compared.
func reportJSON(r gateway.EpochReport) ([]byte, error) {
	r.Elapsed = 0
	return json.Marshal(r)
}

// setup runs the reference: the gateway at one worker for one session's
// epochs, driven directly rather than served. Repeated set-ups must agree
// byte for byte.
func (b *gatewayBench) setup(tr *Tracer) error {
	cfg, err := b.gatewayConfig(1, nil)
	if err != nil {
		return err
	}
	sp := tr.Begin("gateway.New", spanRef{}, 0)
	gw, err := gateway.New(cfg)
	sp.End()
	if err != nil {
		return err
	}
	dumps := 0
	cfg.Flight.SetHook(func(flight.Dump) { dumps++ })
	sp = tr.Begin("gateway.Run", spanRef{}, 0)
	reps, err := gw.Run(context.Background(), b.epochs)
	sp.End()
	if err != nil {
		return err
	}
	snap := gw.Snapshot()
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	var reports [][]byte
	var frames []int
	for _, r := range reps {
		j, err := reportJSON(r)
		if err != nil {
			return err
		}
		reports = append(reports, j)
		frames = append(frames, r.FramesScheduled)
	}
	if b.refSnap != nil {
		same := bytes.Equal(b.refSnap, snapJSON) && len(b.refReports) == len(reports)
		for i := 0; same && i < len(reports); i++ {
			same = bytes.Equal(b.refReports[i], reports[i])
		}
		if !same {
			b.setupErrs = append(b.setupErrs, "repeated reference runs of one seed differ")
		}
	}
	b.ref, b.refSnap, b.refReports, b.refFrames, b.refDumps = &snap, snapJSON, reports, frames, dumps
	return nil
}

// metricsPerEpoch is the most metrics-queue messages one epoch's
// publishEpoch sends a subscriber: report, snapshot, obs dump, client
// stats and health delta.
const metricsPerEpoch = 5

// queues returns fanout queue bounds that hold a whole session's
// messages: every frame event and every metrics message the reference
// says one session sends, with one epoch's worth of slack. The
// subscriber then cannot fall far enough behind for the fanout to drop,
// however the threads are scheduled, and a drop that still happens means
// the server sent more than the reference predicts.
func (b *gatewayBench) queues() (frames, metrics int) {
	for _, n := range b.refFrames {
		frames += n
	}
	frames += frames / len(b.refFrames)
	metrics = (b.epochs+1)*metricsPerEpoch + b.refDumps
	return frames, metrics
}

func (b *gatewayBench) check() []string { return b.setupErrs }

// session is what one served session produced, as seen by the
// subscriber.
type session struct {
	// reported is serve start to the last report's arrival, covering
	// epochs 0..lastEpoch.
	reported  time.Duration
	lastEpoch int
	epochMS   []float64
	frameMS   []float64
	reports   []gateway.EpochReport
	perEpoch  map[int]int // frame events received per epoch
	frames    int         // frame events received
	detected  int
	lastSnap  *gateway.Snapshot
	snap      gateway.Snapshot // gw.Snapshot() after Serve returned
	final     []byte           // snap as JSON
	stats     server.ClientStats
	dumps     int
	alerts    int
	bye       bool
	errs      []string
}

// serveSession serves one session of b.epochs epochs at the benchmark's
// worker count.
func (b *gatewayBench) serveSession(tr *Tracer, reg *obs.Registry, id uint64) (*session, error) {
	s := &session{perEpoch: map[int]int{}}
	root := tr.Begin("session.setup", spanRef{}, id)
	cfg, err := b.gatewayConfig(b.rc.workers, reg)
	if err != nil {
		return nil, err
	}
	sp := tr.Begin("gateway.New", root, id)
	gw, err := gateway.New(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	frameQ, metricsQ := b.queues()
	sp = tr.Begin("server.New", root, id)
	srv, err := server.New(server.Config{
		Gateway:      gw,
		Addr:         "127.0.0.1:0",
		Epochs:       b.epochs,
		FrameQueue:   frameQ,
		MetricsQueue: metricsQ,
		Metrics:      reg,
		Flight:       cfg.Flight,
		Health:       cfg.Health,
	})
	sp.End()
	if err != nil {
		return nil, err
	}

	// Serve owns the accept loop, so the subscriber connects once it runs;
	// epoch 0 may start before the subscription lands (see gate).
	serveStart := time.Now()
	serveSpan := tr.Begin("server.Serve", spanRef{}, id)
	serveErr := make(chan error, 1)
	go func() {
		err := srv.Serve(context.Background())
		serveSpan.End()
		serveErr <- err
	}()

	sp = tr.Begin("server.Dial", root, id)
	c, err := server.Dial(srv.Addr().String())
	if err == nil {
		err = c.Subscribe(true, true, true, true)
	}
	sp.End()
	root.End()
	if err != nil {
		if c != nil {
			c.Close()
		}
		<-serveErr
		return nil, err
	}
	defer c.Close()

	// A frame's latency runs from its epoch's start, which is the previous
	// epoch report's arrival (epochs run back to back), to its own arrival.
	sub := tr.Begin("subscriber", spanRef{}, id)
	last := serveStart
	started := map[int]time.Time{0: serveStart}
	for !s.bye {
		sp := tr.Begin("server.Client.Next", sub, id)
		ev, err := c.Next()
		sp.End()
		now := time.Now()
		if err != nil {
			s.errs = append(s.errs, fmt.Sprintf("subscriber: %v", err))
			break
		}
		switch ev.Kind {
		case server.EventFrame:
			s.frames++
			s.perEpoch[ev.Frame.Epoch]++
			if ev.Frame.Detected {
				s.detected++
			}
			if t, ok := started[ev.Frame.Epoch]; ok {
				s.frameMS = append(s.frameMS, float64(now.Sub(t))/1e6)
			}
		case server.EventEpoch:
			e := ev.Epoch.Epoch
			s.epochMS = append(s.epochMS, float64(now.Sub(last))/1e6)
			s.reports = append(s.reports, ev.Epoch)
			started[e+1] = now
			last = now
			s.reported, s.lastEpoch = now.Sub(serveStart), e
		case server.EventSnapshot:
			s.lastSnap = ev.Snapshot
		case server.EventStats:
			s.stats = ev.Stats
		case server.EventFlight:
			s.dumps++
		case server.EventHealth:
			for _, a := range ev.Health.Alerts {
				if a.State == "firing" {
					s.alerts++
				}
			}
		case server.EventError:
			s.errs = append(s.errs, "server: "+ev.Err)
		case server.EventBye:
			s.bye = true
		}
	}
	sub.End()
	if err := <-serveErr; err != nil {
		s.errs = append(s.errs, fmt.Sprintf("serve: %v", err))
	}
	s.snap = gw.Snapshot()
	final, err := json.Marshal(s.snap)
	if err != nil {
		return nil, err
	}
	s.final = final
	return s, nil
}

// drops is the fanout drops of the session's last client stats.
func (s *session) drops() uint64 { return s.stats.FramesDropped + s.stats.MetricsDropped }

// gate checks one session against the reference. The gateway's own final
// snapshot must match it byte for byte; everything the subscriber
// received must match it too. A message the fanout dropped is a counted
// failure, not a gate failure, so completeness (every report and frame
// event of every epoch after the first, and the final snapshot) is only
// required of a session whose final client stats report no drops. Epoch
// 0 is exempt because the subscription may land after its fold began.
func (b *gatewayBench) gate(s *session) []string {
	errs := append([]string(nil), s.errs...)
	if !s.bye {
		errs = append(errs, "no bye from the server")
	}
	if !bytes.Equal(s.final, b.refSnap) {
		errs = append(errs, "final snapshot differs from the reference")
	}
	got := map[int]bool{}
	for _, r := range s.reports {
		j, err := reportJSON(r)
		if err != nil || r.Epoch < 0 || r.Epoch >= len(b.refReports) || !bytes.Equal(j, b.refReports[r.Epoch]) {
			errs = append(errs, fmt.Sprintf("epoch %d report differs from the reference", r.Epoch))
			continue
		}
		got[r.Epoch] = true
	}
	finalSnap := s.lastSnap != nil && s.lastSnap.Epochs == b.epochs
	if finalSnap {
		if wire, err := json.Marshal(s.lastSnap); err != nil || !bytes.Equal(wire, b.refSnap) {
			errs = append(errs, "final snapshot received over the wire differs from the reference")
		}
	}
	clean := s.stats.Epoch == b.epochs-1 && s.drops() == 0
	for e := 1; e < b.epochs; e++ {
		n, want := s.perEpoch[e], b.refFrames[e]
		if n > want || (clean && n != want) {
			errs = append(errs, fmt.Sprintf("epoch %d: %d frame events for %d scheduled frames", e, n, want))
		}
		if clean && !got[e] {
			errs = append(errs, fmt.Sprintf("epoch %d report missing with no drops counted", e))
		}
	}
	if clean && !finalSnap {
		errs = append(errs, "final snapshot missing with no drops counted")
	}
	return errs
}

// gwPhase is a phase's gateway-level aggregates for the per-layer metrics.
type gwPhase struct {
	sessions int
	reported time.Duration // summed session.reported
	covered  int           // epochs those spans cover
	frames   int           // frame events received
	detected int
	dumps    int
	alerts   int
	bytes    uint64
	sent     uint64
	dropped  uint64
	hwm      uint64
}

func (b *gatewayBench) run(done stopRule, tr *Tracer, reg *obs.Registry) (*phase, error) {
	ph := newPhase()
	agg := &gwPhase{}
	var perSession int64
	for _, n := range b.refFrames {
		perSession += int64(n)
	}
	for id := uint64(1); !done(ph); id++ {
		s, err := b.serveSession(tr, reg, id)
		if err != nil {
			return nil, err
		}
		ph.epochMS = append(ph.epochMS, s.epochMS...)
		ph.frameMS = append(ph.frameMS, s.frameMS...)
		ph.round(perSession)
		ph.attempted += perSession
		ph.failed += int64(s.drops())
		if errs := b.gate(s); len(errs) > 0 {
			ph.failed += perSession
			for _, e := range errs {
				ph.fail("session %d: %s", id, e)
			}
		}
		ph.okNum += s.snap.DeliveryRatio()
		ph.okDen++

		agg.sessions++
		agg.reported += s.reported
		agg.covered += s.lastEpoch + 1
		agg.frames += s.frames
		agg.detected += s.detected
		agg.dumps += s.dumps
		agg.alerts += s.alerts
		agg.bytes += s.stats.BytesWritten
		agg.sent += s.stats.FramesSent + s.stats.MetricsSent
		agg.dropped += s.drops()
		agg.hwm = max(agg.hwm, s.stats.QueueHWM)
	}
	ph.finish()
	b.last = agg
	return ph, nil
}

func (b *gatewayBench) layers(ph *phase, tr *Tracer, reg *obs.Registry) map[string]float64 {
	a := b.last
	st := stages(reg)
	perEpochMS := func(stage string) float64 {
		return ratio(st[stage].Total.Seconds()*1e3, float64(st["epoch"].Count))
	}
	// Work counts come from the reference reports: every gated session
	// reproduced them exactly.
	var windows, cmdsSent, cmdsDel, retx, hops, switches int
	for _, j := range b.refReports {
		var r gateway.EpochReport
		if err := json.Unmarshal(j, &r); err != nil {
			continue
		}
		windows += r.WindowsEmitted
		cmdsSent += r.CmdsSent
		cmdsDel += r.CmdsDelivered
		retx += r.Retransmits
		hops += r.Hops
		switches += r.RateSwitches
	}
	ep := float64(b.epochs)
	served := float64(a.sessions) * ep
	m := pipelineLayers(reg, b.rc.workers, st["decode"].Total)
	for k, v := range map[string]float64{
		"gateway.render_ms_per_epoch":  perEpochMS("render"),
		"gateway.render_share":         ratio(st["render"].Total.Seconds(), st["epoch"].Total.Seconds()),
		"sim.render_us_per_frame":      ratio(st["render"].Total.Seconds()*1e6, float64(ph.frames)),
		"gateway.decode_ms_per_epoch":  perEpochMS("decode"),
		"gateway.ingest_ms_per_epoch":  perEpochMS("ingest"),
		"gateway.control_ms_per_epoch": perEpochMS("control"),
		"gateway.epoch_ms_per_epoch":   perEpochMS("epoch"),
		"gateway.rest_ms_per_epoch":    ratio(a.reported.Seconds()*1e3, float64(a.covered)) - perEpochMS("epoch"),
		"stream.match_ratio":           ratio(float64(b.ref.WindowsEmitted-b.ref.WindowsUnmatched), float64(b.ref.WindowsEmitted)),
		"pipeline.detect_ratio":        ratio(float64(a.detected), float64(a.frames)),
		"server.bytes_per_frame_event": ratio(float64(a.bytes), float64(a.frames)),
		"server.frames_dropped":        float64(a.dropped),
		"server.queue_hwm":             float64(a.hwm),
		"server.msgs_per_epoch":        ratio(float64(a.sent), served),
		"gateway.windows_per_epoch":    ratio(float64(windows), ep),
		"mac.cmds_sent":                ratio(float64(cmdsSent), ep),
		"mac.cmds_delivered":           ratio(float64(cmdsDel), ep),
		"gateway.retx_scheduled":       ratio(float64(retx), ep),
		"gateway.hops":                 ratio(float64(hops), ep),
		"gateway.rate_switches":        ratio(float64(switches), ep),
		"flight.dumps_per_epoch":       ratio(float64(a.dumps), served),
		"health.alerts_fired":          ratio(float64(a.alerts), float64(a.sessions)),
	} {
		m[k] = v
	}
	return zeroLayers(m)
}
