package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true}, // rank 90, 10 beyond
		{99, 90, 90, false}, // rank 90, 9 beyond
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{3, 50, 2, false},
		{1, 50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported as measured")
	}
	if n := minSamplesFor(90); n != 100 {
		t.Errorf("minSamplesFor(90) = %d, want 100", n)
	}
	if n := minSamplesFor(99); n != 1000 {
		t.Errorf("minSamplesFor(99) = %d, want 1000", n)
	}
}

func TestTailOverWholeRounds(t *testing.T) {
	// A burst confined to the first of 20 rounds moves the whole-run p99
	// but not the median of the per-slice p99s.
	ph := newPhase()
	for r := 0; r < 20; r++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if r == 0 {
				v = 100
			}
			ph.frameMS = append(ph.frameMS, v)
		}
		ph.round(1000)
	}
	if whole, _ := percentile(ph.frameMS, 99); whole != 100 {
		t.Fatalf("whole-run p99 = %g, want 100", whole)
	}
	if got, ok := ph.tail(ph.frameMS, framesUpTo, 99); got != 1 || !ok {
		t.Errorf("sliced p99 = %g, %v; want 1, true", got, ok)
	}

	// Slices never split a round, and a run too short for two slices
	// with ten samples beyond the percentile uses the whole run.
	short := newPhase()
	for r := 0; r < 3; r++ {
		for i := 0; i < 500; i++ {
			short.frameMS = append(short.frameMS, float64(r*500+i))
		}
		short.round(500)
	}
	want, wantOK := percentile(short.frameMS, 99)
	if got, ok := short.tail(short.frameMS, framesUpTo, 99); got != want || ok != wantOK {
		t.Errorf("short run p99 = %g, %v; want whole-run %g, %v", got, ok, want, wantOK)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"leaf", 0, 100, nil, 100},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {60, 70}}, 80},
		{"overlapping (two goroutines)", 0, 100, [][2]int64{{10, 30}, {20, 50}, {60, 70}}, 50},
		{"nested duplicate", 0, 100, [][2]int64{{10, 50}, {20, 30}}, 60},
		{"clipped to the parent", 0, 100, [][2]int64{{-5, 5}, {95, 120}}, 90},
		{"fully covered", 0, 100, [][2]int64{{0, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerNestedSelfTime(t *testing.T) {
	tr := newTracer(10)
	root := tr.Begin("root", spanRef{}, 7)
	child := tr.Begin("child", root, 7)
	grand := tr.Begin("grandchild", child, 7)
	time.Sleep(2 * time.Millisecond)
	grand.End()
	time.Sleep(time.Millisecond)
	child.End()
	time.Sleep(time.Millisecond)
	root.End()

	r, c, g := tr.Total("root"), tr.Total("child"), tr.Total("grandchild")
	if g.Self != g.Total {
		t.Errorf("leaf self %v != total %v", g.Self, g.Total)
	}
	if c.Self != c.Total-g.Total {
		t.Errorf("child self %v, want total %v - grandchild %v", c.Self, c.Total, g.Total)
	}
	if r.Self != r.Total-c.Total {
		t.Errorf("root self %v, want total %v - child %v", r.Self, r.Total, c.Total)
	}
	if r.Self <= 0 || c.Self <= 0 {
		t.Errorf("self times not positive: root %v child %v", r.Self, c.Self)
	}
	if len(tr.kept) != 3 {
		t.Fatalf("kept %d spans, want 3", len(tr.kept))
	}
	for _, s := range tr.kept {
		if s.Trace != 7 || s.End < s.Start {
			t.Errorf("span %+v: bad trace or interval", s)
		}
	}
	if tr.kept[0].Parent != tr.kept[1].ID || tr.kept[1].Parent != tr.kept[2].ID || tr.kept[2].Parent != 0 {
		t.Errorf("parent links wrong: %+v", tr.kept)
	}

	var nilTracer *Tracer
	nilTracer.Begin("x", spanRef{}, 0).End() // untraced runs: no-op, no panic
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match [A-Za-z0-9_.-]+ (letter or digit first, at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: BENCHMARK.json %d/%d, code %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
		}
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s/%s, code %+v", i, m.Name, m.Unit, m.Better, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
		}
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s/%s, code %+v", i, m.Name, m.Unit, m.Better, want)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be s/lower with the largest bound, got %s/%s/%g", m.Unit, m.Better, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload shrunk to a few frames,
// untraced and traced, and checks each reports exactly the metric list
// of its mode, passes its correctness gate, and (untraced) reports no
// end-to-end metric as 0.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("serves and decodes every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 100 * time.Millisecond, workers: 2, workDir: t.TempDir(), small: true}
			res, err := execute(w, rc, traced, io.Discard, stampEnv(rc.seed, rc.workers))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, spec := range specs {
				v, ok := res.Metrics[spec.Name]
				if !ok {
					t.Errorf("%s traced=%v: missing %s", w.name, traced, spec.Name)
					continue
				}
				if v.Unit != spec.Unit {
					t.Errorf("%s: %s unit %q, want %q", w.name, spec.Name, v.Unit, spec.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, spec.Name, v.Value)
				}
			}
		}
	}
}

// rssSink keeps TestPeakRSSReset's allocation reachable until it is
// dropped on purpose.
var rssSink []byte

// TestPeakRSSReset checks that max_rss_mb is a workload's own: a peak left
// by earlier work in the process no longer shows after resetPeakRSS.
func TestPeakRSSReset(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Skipf("peak resident set cannot be reset here: %v", err)
	}
	base := peakRSSMB()
	rssSink = make([]byte, 64<<20)
	for i := range rssSink {
		rssSink[i] = 1 // touch every page so it becomes resident
	}
	high := peakRSSMB()
	if high < base+48 {
		t.Fatalf("peak %.1f MiB after touching 64 MiB, from %.1f MiB", high, base)
	}
	rssSink = nil
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	if low := peakRSSMB(); low > high-48 {
		t.Errorf("peak %.1f MiB after reset, want well below the earlier %.1f MiB", low, high)
	}
}

// TestGatewayQueuesHoldSession checks that the fanout queues the
// benchmark gives its server hold every message a served session sends,
// so no scheduling of the subscriber can make the fanout drop.
func TestGatewayQueuesHoldSession(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a gateway session")
	}
	rc := runConfig{seed: 3, seconds: 100 * time.Millisecond, workers: 2, workDir: t.TempDir(), small: true}
	b := newGatewayBench(rc).(*gatewayBench)
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	s, err := b.serveSession(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if errs := b.gate(s); len(errs) > 0 {
		t.Fatalf("gate: %v", errs)
	}
	frameQ, metricsQ := b.queues()
	st := s.stats
	if st.FramesSent > uint64(frameQ) || st.MetricsSent > uint64(metricsQ) || s.drops() != 0 {
		t.Errorf("session sent %d frame and %d metrics messages (%d dropped) into queues of %d and %d",
			st.FramesSent, st.MetricsSent, s.drops(), frameQ, metricsQ)
	}
}
