package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"

	"saiyan/internal/dsp"
)

// pinInput is one render the byte pins cover: a set of transmissions
// composed onto one antenna timeline, rendered with or without noise.
type pinInput struct {
	name  string
	noisy bool
	tx    []pinTx
	total int // capture length in symbols (0: the one tx alone, at offset 0)
}

type pinTx struct {
	at      float64 // start, in symbols
	symbols []int
	rssDBm  float64
}

func pinInputs() []pinInput {
	one := []pinTx{{symbols: []int{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1}, rssDBm: -55}}
	return []pinInput{
		{name: "clean", tx: one},
		{name: "noisy", noisy: true, tx: one},
		{name: "composed", noisy: true, total: 40, tx: []pinTx{
			{at: 2, symbols: []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}, rssDBm: -60},
			{at: 9.5, symbols: []int{0, 0, 1, 1, 1, 0, 1, 0, 0, 1}, rssDBm: -70}, // collides with the first
			{at: 26, symbols: []int{1, 1, 0, 1, 0, 0, 0, 1, 1, 0}, rssDBm: -65},
		}},
	}
}

func pinTrajectory(d *Demodulator, symbols []int) []float64 {
	p := d.cfg.Params
	var traj []float64
	for _, s := range symbols {
		traj = append(traj, p.FreqTrajectory(nil, p.SymbolValue(s), d.fsSim)...)
	}
	return traj
}

// pinRender renders one pin input through the analog chain and returns
// the sampler-rate and correlator-rate envelopes. A lone transmission takes
// the single-trajectory path DemodulatePayload and ProcessFrame use.
func pinRender(d *Demodulator, in pinInput) (env, envC []float64) {
	var rng *rand.Rand
	if in.noisy {
		rng = dsp.NewRand(20220404, 13)
	}
	if in.total == 0 {
		tx := in.tx[0]
		return d.Render(nil, nil, d.antenna(pinTrajectory(d, tx.symbols), tx.rssDBm), rng)
	}
	spb := float64(d.spbSimInt)
	x := make([]float64, int(math.Round(float64(in.total)*spb)))
	for _, tx := range in.tx {
		d.ComposeSignal(x, int(math.Round(tx.at*spb)), pinTrajectory(d, tx.symbols), tx.rssDBm)
	}
	return d.Render(nil, nil, x, rng)
}

// empty is the digest of no samples: the correlator stream outside
// ModeFull.
const empty = "e3b0c44298fc1c14"

// floatDigest is a short SHA-256 of the samples' IEEE-754 bits.
func floatDigest(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRenderBytesPinned pins the exact bytes of the render chain's output
// in every mode, for a noise-free and a noisy single trajectory and a noisy
// composed capture of three transmissions with one collision. The digests
// were recorded before the chain moved its decimation into the video
// filter; any change to them is a change to every decode downstream.
func TestRenderBytesPinned(t *testing.T) {
	want := map[string][2]string{
		"vanilla/clean":       {"fa40d88537f5b3c7", empty},
		"vanilla/noisy":       {"9f7e470476124799", empty},
		"vanilla/composed":    {"df943bceeb34d5c7", empty},
		"freq-shift/clean":    {"6f4a56cc4b517c97", empty},
		"freq-shift/noisy":    {"2e980c9351d82c44", empty},
		"freq-shift/composed": {"fbcd5568a44f875c", empty},
		"full/clean":          {"6f4a56cc4b517c97", "e097ed8cac8f63d0"},
		"full/noisy":          {"2e980c9351d82c44", "bf487b2c6e3c2ca7"},
		"full/composed":       {"fbcd5568a44f875c", "adc0e497090cba9d"},
	}
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range pinInputs() {
			env, envC := pinRender(d, in)
			if mode != ModeFull && len(envC) != 0 {
				t.Errorf("%v/%s: %d correlator samples outside ModeFull", mode, in.name, len(envC))
			}
			key := mode.String() + "/" + in.name
			got := [2]string{floatDigest(env), floatDigest(envC)}
			if got != want[key] {
				t.Errorf("%s: env/envC digests %s/%s (%d/%d samples), want %s/%s",
					key, got[0], got[1], len(env), len(envC), want[key][0], want[key][1])
			}
		}
	}
}
