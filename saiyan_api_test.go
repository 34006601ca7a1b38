package saiyan_test

// The facade's configuration contract (see the "Configuration pattern"
// section of saiyan.go): every exported constructor either accepts its
// zero-value config — filling documented defaults internally — or rejects
// it with a descriptive error naming what is missing. A constructor that
// panics, hangs, or returns a bare error breaks this contract.

import (
	"reflect"
	"strings"
	"testing"

	"saiyan"
)

// requireDescriptive asserts an error message carries enough context to
// act on: a package prefix and some words.
func requireDescriptive(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected a descriptive rejection, got nil error", what)
	}
	msg := err.Error()
	if !strings.Contains(msg, ":") || len(msg) < 10 {
		t.Errorf("%s: error %q is not descriptive", what, msg)
	}
}

func TestZeroValueConfigContract(t *testing.T) {
	// Required-field rejections: zero configs missing their one required
	// field come back with an error that names the problem.
	if _, err := saiyan.NewDemodulator(saiyan.Config{}); err != nil {
		requireDescriptive(t, "NewDemodulator(zero)", err)
	} else {
		t.Error("NewDemodulator(zero): accepted a zero Params")
	}
	if _, err := saiyan.NewPipeline(saiyan.PipelineConfig{}); err != nil {
		requireDescriptive(t, "NewPipeline(zero)", err)
	} else {
		t.Error("NewPipeline(zero): accepted a zero Demod")
	}
	if _, err := saiyan.NewGateway(saiyan.GatewayConfig{}); err != nil {
		requireDescriptive(t, "NewGateway(zero)", err)
	} else {
		t.Error("NewGateway(zero): accepted a zero Demod/Budget")
	}
	if _, err := saiyan.NewServer(saiyan.ServerConfig{}); err != nil {
		requireDescriptive(t, "NewServer(zero)", err)
	} else {
		t.Error("NewServer(zero): accepted a nil Gateway")
	}
	if _, err := saiyan.NewFrame(saiyan.Params{}, nil); err != nil {
		requireDescriptive(t, "NewFrame(zero params)", err)
	} else {
		t.Error("NewFrame(zero params): accepted SF 0")
	}
	if _, err := saiyan.NewReceiver(saiyan.Params{}, 0); err != nil {
		requireDescriptive(t, "NewReceiver(zero params)", err)
	} else {
		t.Error("NewReceiver(zero params): accepted SF 0")
	}
	if _, err := saiyan.NewTagSet(saiyan.Params{}, saiyan.DefaultLinkBudget(), 1, 10, 20, 1); err != nil {
		requireDescriptive(t, "NewTagSet(zero params)", err)
	} else {
		t.Error("NewTagSet(zero params): accepted SF 0")
	}

	// Minimal configs: supplying only the required field succeeds — every
	// other knob defaults.
	if d, err := saiyan.NewDemodulator(saiyan.Config{Params: saiyan.DefaultParams()}); err != nil || d == nil {
		t.Errorf("NewDemodulator(Params only): %v", err)
	}
	if p, err := saiyan.NewPipeline(saiyan.PipelineConfig{Demod: saiyan.DefaultConfig()}); err != nil {
		t.Errorf("NewPipeline(Demod only): %v", err)
	} else {
		p.Drain()
	}
	g, err := saiyan.NewGateway(saiyan.GatewayConfig{
		Demod:  saiyan.DefaultConfig(),
		Budget: saiyan.DefaultLinkBudget(),
	})
	if err != nil {
		t.Fatalf("NewGateway(Demod+Budget only): %v", err)
	}
	if srv, err := saiyan.NewServer(saiyan.ServerConfig{Gateway: g}); err != nil {
		t.Errorf("NewServer(Gateway only): %v", err)
	} else {
		srv.Close()
	}

	// The health store follows the zero-value side of the contract: an
	// empty HealthOptions defaults every knob, the stock rule set
	// validates, and a malformed rule is rejected descriptively.
	if hs, err := saiyan.NewHealthStore(saiyan.HealthOptions{}); err != nil || hs == nil {
		t.Errorf("NewHealthStore(zero): %v", err)
	}
	if hs, err := saiyan.NewHealthStore(saiyan.HealthOptions{Rules: saiyan.DefaultHealthRules()}); err != nil || hs == nil {
		t.Errorf("NewHealthStore(DefaultHealthRules): %v", err)
	}
	if _, err := saiyan.NewHealthStore(saiyan.HealthOptions{Rules: []saiyan.HealthRule{{Name: "x"}}}); err != nil {
		requireDescriptive(t, "NewHealthStore(rule without series)", err)
	} else {
		t.Error("NewHealthStore: accepted a rule without a series pattern")
	}

	// The Default*Config helpers are conveniences over the same pattern,
	// not a separate code path: they must construct successfully.
	if d, err := saiyan.NewDemodulator(saiyan.DefaultConfig()); err != nil || d == nil {
		t.Errorf("NewDemodulator(DefaultConfig): %v", err)
	}
	if p, err := saiyan.NewPipeline(saiyan.DefaultPipelineConfig()); err != nil {
		t.Errorf("NewPipeline(DefaultPipelineConfig): %v", err)
	} else {
		p.Drain()
	}
	if _, err := saiyan.NewGateway(saiyan.DefaultGatewayConfig()); err != nil {
		t.Errorf("NewGateway(DefaultGatewayConfig): %v", err)
	}
}

// TestConfigFieldsPinned lists the exported fields of every facade config
// against a literal list, so adding or removing an option is a visible diff
// here rather than a silent change to the settable surface.
func TestConfigFieldsPinned(t *testing.T) {
	want := []struct {
		name   string
		cfg    any
		fields []string
	}{
		{"Config", saiyan.Config{}, []string{"Params", "Mode", "Datapath", "ADCBits", "SampleRateMultiplier", "Oversample", "CorrOversample", "SAW", "LNA", "Envelope", "IFAmp", "ClockPhaseError", "ThresholdGapDB", "VideoCutoffFrac"}},
		{"PipelineConfig", saiyan.PipelineConfig{}, []string{"Demod", "Workers", "DiscardResults", "Seed", "CalibrationQuantumDB", "Metrics", "Flight"}},
		{"StreamConfig", saiyan.StreamConfig{}, []string{"Demod", "PayloadSymbols", "HuntRSSDBm", "Seed", "Metrics", "Flight", "FlightEpoch", "FlightChannel"}},
		{"TimelineConfig", saiyan.TimelineConfig{}, []string{"FramesPerTag", "OverlapEvery", "SeqBase", "Retransmits"}},
		{"GatewayConfig", saiyan.GatewayConfig{}, []string{"Demod", "Budget", "Channels", "Tags", "MinM", "MaxM", "FramesPerTag", "ChunkSamples", "Workers", "Seed", "StatsWindow", "Adapter", "InitialRateK", "HopThresholdPRR", "RetryMax", "JoinEvery", "LeaveEvery", "MobilitySigma", "Degrade", "RecalThresholdDB", "Metrics", "Flight", "Health"}},
		{"ServerConfig", saiyan.ServerConfig{}, []string{"Gateway", "Addr", "Epochs", "EpochGap", "FrameQueue", "MetricsQueue", "WriteTimeout", "CaptureDir", "Logf", "Metrics", "Flight", "Health"}},
		{"FlightOptions", saiyan.FlightOptions{}, []string{"Shards", "SpanCap", "DumpCap", "MaxSpans"}},
		{"HealthOptions", saiyan.HealthOptions{}, []string{"RawCap", "FanIn", "Tiers", "JournalCap", "ExemplarCap", "Rules"}},
	}
	for _, w := range want {
		rt := reflect.TypeOf(w.cfg)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, w.fields) {
			t.Errorf("%s fields:\n got  %q\n want %q", w.name, got, w.fields)
		}
	}
}
