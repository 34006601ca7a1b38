// Command perfbench is the repository benchmark: closed-loop workloads
// over the served gateway, the receiver alone on its fixed-point
// datapath, and trace replay. It prints every metric by name and unit,
// gates every run on output correctness, and ends its standard output
// with one JSON result line.
//
//	perfbench --workload gateway-serve --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10 --trace 1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing attached. With --trace 1 half of the time runs untraced and
// half traced; the result carries the per-layer metrics, the per-layer
// self-time table is printed, and the spans are written as JSON under
// .bench_build. Every workload runs at nproc pipeline workers. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"saiyan/internal/obs"
)

// setupRepeats is how many times a run builds its workload's inputs;
// setup_s is their median.
const setupRepeats = 3

// workDir holds the files a run writes (the recorded trace and the traced
// run's span JSON), relative to the directory the benchmark runs in.
const workDir = ".bench_build"

// keepSpans bounds the spans retained for the JSON dump of a traced run.
const keepSpans = 200000

// runConfig is what every workload is built from.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	workers int
	// workDir holds files a workload writes (the recorded trace).
	workDir string
	// small shrinks every workload to a few frames, for tests.
	small bool
}

// phase is the outcome of one timed closed loop.
type phase struct {
	m       meter
	cost    phaseCost
	marks   []mark    // one per round, in order
	frames  int64     // frames served or decoded
	epochMS []float64 // one sample per closed-loop round
	frameMS []float64 // one sample per frame
	// attempted/failed count operations; gateErrs lists correctness gate
	// failures (each also counted as failed operations).
	attempted, failed int64
	gateErrs          []string
	okNum, okDen      float64
}

// mark is the phase's running totals at the end of one round. A round is
// a unit of work that repeats identically through a run (a gateway
// session, a set of rx passes over every capture, one replay), so runs
// of whole rounds are alike and can be compared with each other.
type mark struct {
	at, cpu        time.Duration
	frames         int64
	epochN, frameN int // latency samples taken so far
}

func newPhase() *phase { return &phase{m: startMeter()} }

// round records the end of one round that handled frames; the round's
// latency samples must already be appended.
func (p *phase) round(frames int64) {
	p.frames += frames
	p.marks = append(p.marks, mark{
		at: time.Since(p.m.t0), cpu: cpuTime() - p.m.cpu0, frames: p.frames,
		epochN: len(p.epochMS), frameN: len(p.frameMS),
	})
}

func (p *phase) finish() { p.cost = p.m.stop() }

// rateSlices is the most slices of consecutive rounds a run's figures
// are measured over; each figure is reported as its median slice, so a
// stretch of interference from outside the process moves it less than
// it moves a whole-run figure.
const rateSlices = 20

// sliced returns the median over at most rateSlices slices of
// consecutive rounds of f(wall, cpu, frames).
func (p *phase) sliced(f func(wall, cpu time.Duration, frames int64) float64) float64 {
	n := min(rateSlices, len(p.marks))
	if n == 0 {
		return 0
	}
	var vals []float64
	prev := mark{}
	for i := 1; i <= n; i++ {
		end := p.marks[i*len(p.marks)/n-1]
		vals = append(vals, f(end.at-prev.at, end.cpu-prev.cpu, end.frames-prev.frames))
		prev = end
	}
	return median(vals)
}

// tail returns the pct-th percentile of samples (the run's epochMS or
// frameMS; upTo reads a mark's count of them) as the median over slices
// of consecutive whole rounds, each slice holding enough samples for the
// percentile to have minBeyond beyond it and at most rateSlices slices.
// With too few samples for two slices it is the whole-run percentile.
// ok reports whether every slice has minBeyond samples beyond.
func (p *phase) tail(samples []float64, upTo func(mark) int, pct float64) (v float64, ok bool) {
	need := max(minSamplesFor(pct), len(samples)/rateSlices)
	var vals []float64
	ok = true
	lo := 0
	for _, m := range p.marks {
		hi := upTo(m)
		if hi-lo < need || len(samples)-hi < need {
			continue // slice still short, or the rest would be
		}
		v, sliceOK := percentile(samples[lo:hi], pct)
		vals, ok, lo = append(vals, v), ok && sliceOK, hi
	}
	if len(vals) == 0 {
		return percentile(samples, pct)
	}
	v, lastOK := percentile(samples[lo:], pct)
	return median(append(vals, v)), ok && lastOK
}

func (p *phase) fail(format string, args ...any) {
	p.gateErrs = append(p.gateErrs, fmt.Sprintf(format, args...))
}

// stopRule tells a closed loop, between rounds, whether to stop.
type stopRule func(p *phase) bool

// timed stops a loop once d has elapsed. With tails set it also waits
// until every tail percentile has minBeyond samples beyond it, but never
// past twice d.
func timed(d time.Duration, tails bool) stopRule {
	t0 := time.Now()
	return func(p *phase) bool {
		el := time.Since(t0)
		if el < d {
			return false
		}
		return !tails || el >= 2*d || (len(p.epochMS) >= tailSamples90 && len(p.frameMS) >= tailSamples99)
	}
}

// Sample counts at which the reported tail percentiles have minBeyond
// samples beyond them.
var (
	tailSamples90 = minSamplesFor(90)
	tailSamples99 = minSamplesFor(99)
)

// framesPerSec is the median slice's frames per wall second.
func (p *phase) framesPerSec() float64 {
	return p.sliced(func(wall, _ time.Duration, frames int64) float64 {
		return ratio(float64(frames), wall.Seconds())
	})
}

// cpuMSPerFrame is the median slice's process CPU per frame.
func (p *phase) cpuMSPerFrame() float64 {
	return p.sliced(func(_, cpu time.Duration, frames int64) float64 {
		return ratio(float64(cpu)/1e6, float64(frames))
	})
}

// bench is one workload's implementation.
type bench interface {
	// setup builds the workload's inputs; it runs setupRepeats times and
	// is timed as setup_s.
	setup(tr *Tracer) error
	// check runs the reference pass the timed phase is gated against and
	// returns the gate failures it found.
	check() []string
	// run is the timed closed loop: it starts rounds until done says stop.
	run(done stopRule, tr *Tracer, reg *obs.Registry) (*phase, error)
	// layers derives the per-layer metrics of a traced phase.
	layers(ph *phase, tr *Tracer, reg *obs.Registry) map[string]float64
}

// workload is one named entry of the benchmark; BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	make func(rc runConfig) bench
}

var workloads = []workload{
	{"gateway-serve", newGatewayBench},
	{"rx-stream-fxp", newRxBench},
	{"trace-replay", newReplayBench},
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or 'all'")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed phase length in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0|1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), workers: runtime.NumCPU(), workDir: workDir}
	stamp := stampEnv(*seed, rc.workers)
	if b, err := json.Marshal(stamp); err == nil {
		fmt.Fprintf(stdout, "env: %s\n", b)
	}

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := execute(w, rc, *traced == 1, stdout, stamp)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !final.Correct {
		return 1
	}
	return 0
}

// execute runs one workload: set-up (setupRepeats times), the reference
// check, and the timed phase(s).
func execute(w workload, rc runConfig, traced bool, out io.Writer, stamp envStamp) (result, error) {
	b := w.make(rc)
	var tr *Tracer
	if traced {
		tr = newTracer(keepSpans)
	}
	// The peak resident set is the workload's own: what earlier workloads
	// of the process left behind is returned to the OS and the kernel's
	// high-water mark restarted before set-up.
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(out, "max_rss_mb (%s): peak not reset (%v); the figure is the process peak so far\n", w.name, err)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	checkErrs := b.check()

	metrics := map[string]float64{}
	var gated *phase
	if !traced {
		ph, err := b.run(timed(rc.seconds, true), nil, nil)
		if err != nil {
			return result{}, err
		}
		gated = ph
		for k, v := range endToEndMetrics(ph) {
			metrics[k] = v
		}
		metrics["setup_s"] = median(setups)
		printSamples(out, w.name, ph, len(setups))
	} else {
		plain, err := b.run(timed(rc.seconds/2, false), nil, nil)
		if err != nil {
			return result{}, err
		}
		reg := obs.NewRegistry()
		ph, err := b.run(timed(rc.seconds/2, false), tr, reg)
		if err != nil {
			return result{}, err
		}
		plain.gateErrs = append(plain.gateErrs, ph.gateErrs...)
		plain.attempted += ph.attempted
		plain.failed += ph.failed
		gated = plain
		for k, v := range b.layers(ph, tr, reg) {
			metrics[k] = v
		}
		metrics["bench.trace_overhead_ratio"] = ratio(plain.framesPerSec(), ph.framesPerSec())
		rows := tr.Rows()
		st := stages(reg)
		for _, name := range stageNames {
			if st[name].Count > 0 {
				rows = append(rows, st[name])
			}
		}
		sortRows(rows)
		writeTable(out, w.name, rows)
		if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(rc.workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, rc.seed))
		if err := tr.WriteJSON(path, stamp); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}

	gated.gateErrs = append(gated.gateErrs, checkErrs...)
	res := result{
		Correct:   len(gated.gateErrs) == 0,
		Attempted: gated.attempted,
		Failed:    gated.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, e := range gated.gateErrs {
		fmt.Fprintf(out, "GATE FAILED (%s): %s\n", w.name, e)
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operations attempted")
	}
	names := make([]string, 0, len(metrics))
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", k, v)
		}
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s (attempted=%d failed=%d correct=%v)\n", w.name, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		res.Metrics[k] = metricValue{Value: metrics[k], Unit: unitOf(k)}
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", k, metrics[k], unitOf(k))
	}
	return res, nil
}

func epochsUpTo(m mark) int { return m.epochN }
func framesUpTo(m mark) int { return m.frameN }

// endToEndMetrics derives the user-visible metrics of an untraced phase
// (setup_s is added by the caller).
func endToEndMetrics(ph *phase) map[string]float64 {
	frames := float64(ph.frames)
	e50, _ := ph.tail(ph.epochMS, epochsUpTo, 50)
	e90, _ := ph.tail(ph.epochMS, epochsUpTo, 90)
	f50, _ := ph.tail(ph.frameMS, framesUpTo, 50)
	f99, _ := ph.tail(ph.frameMS, framesUpTo, 99)
	return map[string]float64{
		"frames_per_s":       ph.framesPerSec(),
		"epoch_ms_p50":       e50,
		"epoch_ms_p90":       e90,
		"frame_ms_p50":       f50,
		"frame_ms_p99":       f99,
		"cpu_ms_per_frame":   ph.cpuMSPerFrame(),
		"alloc_kb_per_frame": ratio(float64(ph.cost.Alloc)/1024, frames),
		"max_rss_mb":         peakRSSMB(),
		"ok_ratio":           ratio(ph.okNum, ph.okDen),
	}
}

// printSamples states every timing's sample count, and whether each tail
// percentile has minBeyond samples beyond it.
func printSamples(out io.Writer, name string, ph *phase, setups int) {
	_, ok90 := ph.tail(ph.epochMS, epochsUpTo, 90)
	_, ok99 := ph.tail(ph.frameMS, framesUpTo, 99)
	var warn []string
	if !ok90 {
		warn = append(warn, "epoch_ms_p90")
	}
	if !ok99 {
		warn = append(warn, "frame_ms_p99")
	}
	note := "every tail percentile has >= 10 samples beyond it"
	if len(warn) > 0 {
		note = "fewer than 10 samples beyond " + strings.Join(warn, ", ")
	}
	fmt.Fprintf(out, "samples (%s): setups=%d rate_slices=%d epochs=%d frames=%d wall=%.3fs; %s\n",
		name, setups, min(rateSlices, len(ph.marks)), len(ph.epochMS), len(ph.frameMS), ph.cost.Wall.Seconds(), note)
}
