// Command saiyanwave dumps simulated waveforms as CSV for plotting: the
// frequency trajectory of a chirp, its SAW-transformed envelope (the
// Figure 6 waveforms), the comparator's binary output, and the full-frame
// envelope (the Figure 8 decode walk). Useful for regenerating the paper's
// waveform figures with any plotting tool.
//
// Usage:
//
//	saiyanwave -wave symbol -symbol 2 -k 2 > symbol.csv
//	saiyanwave -wave frame -k 2 > frame.csv
//	saiyanwave -wave saw > saw_response.csv
//
// Flags select SF / BW / CR, the demodulator mode, the link distance, and
// the noise seed (0 = noise free).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"saiyan"
)

func main() {
	wave := flag.String("wave", "symbol", "what to dump: symbol | frame | saw")
	sf := flag.Int("sf", 7, "spreading factor (7-12)")
	bw := flag.Float64("bw", 500, "bandwidth in kHz (125/250/500)")
	k := flag.Int("k", 2, "bits per chirp (paper CR, 1-5)")
	symbol := flag.Int("symbol", 1, "downlink symbol to render (symbol wave)")
	mode := flag.String("mode", "vanilla", "demodulator chain: vanilla | shift | full")
	dist := flag.Float64("dist", 50, "link distance in meters")
	seed := flag.Uint64("seed", 0, "noise seed; 0 renders noise-free")
	flag.Parse()

	cfg := saiyan.DefaultConfig()
	cfg.Params.SF = *sf
	cfg.Params.BandwidthHz = *bw * 1000
	cfg.Params.K = *k
	switch *mode {
	case "vanilla":
		cfg.Mode = saiyan.ModeVanilla
	case "shift":
		cfg.Mode = saiyan.ModeFreqShift
	case "full":
		cfg.Mode = saiyan.ModeFull
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	switch *wave {
	case "saw":
		dumpSAW()
	case "symbol":
		dumpSymbol(cfg, *symbol, *dist, *seed)
	case "frame":
		dumpFrame(cfg, *dist, *seed)
	default:
		log.Fatalf("unknown wave %q (symbol | frame | saw)", *wave)
	}
}

func rngFor(seed uint64) *rand.Rand {
	if seed == 0 {
		return nil
	}
	return saiyan.NewRand(seed, 1)
}

// renderEnvelope renders one trajectory, alone on the antenna, to the
// sampler-rate envelope (rng=nil for a noise-free render).
func renderEnvelope(d *saiyan.Demodulator, trajHz []float64, rssDBm float64, rng *rand.Rand) []float64 {
	x := make([]float64, len(trajHz))
	d.ComposeSignal(x, 0, trajHz, rssDBm)
	env, _ := d.Render(nil, nil, x, rng)
	return env
}

func dumpSAW() {
	saw := saiyan.PaperSAW()
	fmt.Println("freq_mhz,response_db")
	for f := 428.0; f <= 440.0; f += 0.01 {
		fmt.Printf("%.3f,%.3f\n", f, saw.ResponseDB(f*1e6))
	}
}

func dumpSymbol(cfg saiyan.Config, symbol int, dist float64, seed uint64) {
	demod, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := cfg.Params
	if symbol < 0 || symbol >= p.AlphabetSize() {
		log.Fatalf("symbol %d outside alphabet [0, %d)", symbol, p.AlphabetSize())
	}
	rss := saiyan.DefaultLinkBudget().RSSDBm(dist)
	calRng := saiyan.NewRand(7, 7)
	demod.Calibrate(rss, calRng)
	traj := p.FreqTrajectory(nil, p.SymbolValue(symbol), demod.SimRateHz())
	env := renderEnvelope(demod, traj, rss, rngFor(seed))
	th := demod.Thresholds()
	bits := th.Quantize(nil, env)

	fmt.Println("t_us,freq_khz,envelope,comparator")
	for i, v := range env {
		simIdx := demod.SimIndex(i)
		f := 0.0
		if simIdx < len(traj) {
			f = traj[simIdx] / 1000
		}
		tUS := float64(i) / demod.SamplerRateHz() * 1e6
		b := 0
		if bits[i] {
			b = 1
		}
		fmt.Printf("%.2f,%.2f,%.6g,%d\n", tUS, f, v, b)
	}
	fmt.Fprintf(os.Stderr, "symbol %d (%s), peak theory at %.3f of the window\n",
		symbol, p, p.PeakFraction(p.SymbolValue(symbol)))
}

func dumpFrame(cfg saiyan.Config, dist float64, seed uint64) {
	demod, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := cfg.Params
	rss := saiyan.DefaultLinkBudget().RSSDBm(dist)
	calRng := saiyan.NewRand(7, 7)
	demod.Calibrate(rss, calRng)
	payload := make([]int, 8)
	for i := range payload {
		payload[i] = i % p.AlphabetSize()
	}
	frame, err := saiyan.NewFrame(p, payload)
	if err != nil {
		log.Fatal(err)
	}
	traj := frame.FreqTrajectory(nil, demod.SimRateHz())
	env := renderEnvelope(demod, traj, rss, rngFor(seed))
	fmt.Println("t_ms,envelope")
	for i, v := range env {
		fmt.Printf("%.4f,%.6g\n", float64(i)/demod.SamplerRateHz()*1e3, v)
	}
	fmt.Fprintf(os.Stderr, "frame: 10 preamble + 2.25 sync + %d payload symbols at %s\n",
		len(payload), p)
}
