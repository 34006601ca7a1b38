package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"saiyan/internal/chunk"
	"saiyan/internal/gateway"
)

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := chunk.Write(&buf, msgEpoch, []byte(`{"epoch":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := chunk.Write(&buf, msgBye, nil); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	typ, payload, err := wire.Read(r)
	if err != nil || typ != msgEpoch || string(payload) != `{"epoch":1}` {
		t.Fatalf("first message: typ=0x%02x payload=%q err=%v", typ, payload, err)
	}
	typ, payload, err = wire.Read(r)
	if err != nil || typ != msgBye || len(payload) != 0 {
		t.Fatalf("second message: typ=0x%02x payload=%q err=%v", typ, payload, err)
	}
	if _, _, err := wire.Read(r); err != io.EOF {
		t.Fatalf("after last message: %v, want io.EOF", err)
	}
}

func TestMsgCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := chunk.Write(&buf, msgFrame, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Every truncation point inside the message is ErrTruncated.
	for cut := 1; cut < len(full); cut++ {
		_, _, err := wire.Read(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v, want ErrTruncated", cut, err)
		}
	}
	// Every single-bit flip is ErrCorrupt (or an implausible-length
	// ErrCorrupt — same sentinel either way).
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[i] ^= 1 << bit
			_, _, err := wire.Read(bytes.NewReader(mut))
			if err == nil {
				// A flip inside the length field can make the message
				// longer than the buffer — that reads as truncated.
				t.Fatalf("flip byte %d bit %d: no error", i, bit)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("flip byte %d bit %d: %v, want ErrCorrupt/ErrTruncated", i, bit, err)
			}
		}
	}
}

func TestPreludeVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WritePrelude(&buf); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadPrelude(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	// Wrong version.
	mut := append([]byte(nil), buf.Bytes()...)
	mut[len(mut)-4] ^= 0xFF
	if err := wire.ReadPrelude(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v, want ErrVersion", err)
	}
	// Wrong magic.
	mut = append([]byte(nil), buf.Bytes()...)
	mut[0] ^= 0xFF
	if err := wire.ReadPrelude(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
	// Short prelude.
	if err := wire.ReadPrelude(bytes.NewReader(mut[:5])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short prelude: %v, want ErrTruncated", err)
	}
}

func TestFrameEventRoundTrip(t *testing.T) {
	events := []gateway.FrameEvent{
		{},
		{
			Epoch: 7, Channel: 1, Tag: 42, RateK: 3, Seq: 99,
			Retransmit: true, Detected: true, Correct: true, Fresh: true,
			SymbolErrs: 2, OffsetSamples: -17, RSSDBm: -83.25,
		},
		{Epoch: -1, Tag: -5, SymbolErrs: -1, OffsetSamples: 1 << 40, RSSDBm: 0},
	}
	for _, ev := range events {
		enc := encodeFrameEvent(nil, ev)
		if len(enc) != frameEventBytes {
			t.Fatalf("encoded %d bytes, want %d", len(enc), frameEventBytes)
		}
		back, err := decodeFrameEvent(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if back != ev {
			t.Fatalf("round trip:\n in  %+v\n out %+v", ev, back)
		}
	}
	// Short and long payloads are ErrCorrupt.
	enc := encodeFrameEvent(nil, events[1])
	if _, err := decodeFrameEvent(enc[:len(enc)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short frame event: %v, want ErrCorrupt", err)
	}
	if _, err := decodeFrameEvent(append(enc, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("long frame event: %v, want ErrCorrupt", err)
	}
}

func TestControlPayloadRoundTrip(t *testing.T) {
	tag, k, err := decodeRateOverride(encodeRateOverride(-1, 3))
	if err != nil || tag != -1 || k != 3 {
		t.Fatalf("rate override: tag=%d k=%d err=%v", tag, k, err)
	}

	plan := []TagMove{{Tag: 3, Channel: 1}, {Tag: 9, Channel: 0}}
	payload, err := encodeChannelPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeChannelPlan(payload)
	if err != nil || len(back) != 2 || back[0] != plan[0] || back[1] != plan[1] {
		t.Fatalf("channel plan: %+v err=%v", back, err)
	}
	empty, err := encodeChannelPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := decodeChannelPlan(empty); err != nil || len(back) != 0 {
		t.Fatalf("empty plan: %+v err=%v", back, err)
	}
	if _, err := encodeChannelPlan([]TagMove{{Tag: 1, Channel: 300}}); err == nil {
		t.Fatal("channel 300 must be rejected")
	}

	path, err := decodeString(mustEncodeString(t, "/tmp/capture.bin"))
	if err != nil || path != "/tmp/capture.bin" {
		t.Fatalf("string: %q err=%v", path, err)
	}
}

func mustEncodeString(t *testing.T, s string) []byte {
	t.Helper()
	b, err := encodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeAny routes a payload through the matching typed decoder, the way
// the server's read loop and the client's Next do.
func decodeAny(typ byte, payload []byte) error {
	switch typ {
	case msgSubscribe:
		d := chunk.NewDecoder(payload)
		d.U8()
		return d.Done()
	case msgPause, msgResume, msgCaptureStop, msgBye:
		return nil
	case msgRateOverride:
		_, _, err := decodeRateOverride(payload)
		return err
	case msgChannelPlan:
		_, err := decodeChannelPlan(payload)
		return err
	case msgCaptureStart:
		_, err := decodeString(payload)
		return err
	case msgFrame:
		_, err := decodeFrameEvent(payload)
		return err
	case msgHello, msgEpoch, msgSnapshot, msgClientStats, msgError:
		return nil // JSON payloads: framing already CRC-verified
	default:
		return ErrUnknownType
	}
}

// FuzzWireFrame drives the full wire decode path — prelude, message
// framing, typed payload decoders — over arbitrary bytes. Truncations, bit
// flips, and unknown message types must come back as the package's typed
// errors; nothing may panic.
func FuzzWireFrame(f *testing.F) {
	var seed bytes.Buffer
	wire.WritePrelude(&seed)
	chunk.Write(&seed, msgSubscribe, []byte{subFrames | subMetrics})
	chunk.Write(&seed, msgRateOverride, encodeRateOverride(2, 3))
	plan, _ := encodeChannelPlan([]TagMove{{Tag: 1, Channel: 1}})
	chunk.Write(&seed, msgChannelPlan, plan)
	path, _ := encodeString("cap.bin")
	chunk.Write(&seed, msgCaptureStart, path)
	chunk.Write(&seed, msgFrame, encodeFrameEvent(nil, gateway.FrameEvent{Epoch: 1, Tag: 3, Seq: 9, SymbolErrs: -1}))
	chunk.Write(&seed, msgBye, nil)
	full := seed.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add([]byte(wire.Magic))
	mut := append([]byte(nil), full...)
	mut[20] ^= 0x10
	f.Add(mut)
	f.Add([]byte{0xFF, 0, 0, 0, 0})

	allowed := func(err error) bool {
		return err == nil || errors.Is(err, io.EOF) || errors.Is(err, ErrCorrupt) ||
			errors.Is(err, ErrTruncated) || errors.Is(err, ErrVersion) || errors.Is(err, ErrUnknownType)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if err := wire.ReadPrelude(r); err != nil {
			if !allowed(err) {
				t.Fatalf("prelude: unexpected error type: %v", err)
			}
			return
		}
		for {
			typ, payload, err := wire.Read(r)
			if err != nil {
				if !allowed(err) {
					t.Fatalf("wire.Read: unexpected error type: %v", err)
				}
				return
			}
			if err := decodeAny(typ, payload); !allowed(err) {
				t.Fatalf("decode 0x%02x: unexpected error type: %v", typ, err)
			}
		}
	})
}

// TestWireBytesPinned pins the exact bytes of one fixed message stream —
// prelude, subscribe, frame event, bye — so no refactor of the framing can
// change what goes on the wire.
func TestWireBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WritePrelude(&buf); err != nil {
		t.Fatal(err)
	}
	ev := gateway.FrameEvent{
		Epoch: 7, Channel: 2, Tag: 5, RateK: 3, Seq: 0x0102030405,
		Retransmit: true, Correct: true, SymbolErrs: -2, OffsetSamples: 123456, RSSDBm: -97.5,
	}
	for _, m := range []struct {
		typ     byte
		payload []byte
	}{
		{msgSubscribe, []byte{subFrames | subHealth}},
		{msgFrame, encodeFrameEvent(nil, ev)},
		{msgBye, nil},
	} {
		if err := chunk.Write(&buf, m.typ, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	const want = "534149595749520004000000" + // prelude
		"01010000000912e3223e" + // subscribe
		"112700000007000000020500000003050403020100000005feffffff40e201000000000000000000006058c09267e6fc" + // frame event
		"16000000003f958229" // bye
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", got, want)
	}
}
