package chunk

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzFormat is a format of this package's own, so the fuzzer exercises
// the envelope without any payload codec on top.
var fuzzFormat = Format{Magic: "SAIYFUZ\x00", Version: 7, MaxPayload: 1 << 16}

// typed reports whether err is one of the outcomes the package promises
// for arbitrary input: a sentinel or a clean end of stream.
func typed(err error) bool {
	return err == io.EOF || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrVersion)
}

// FuzzChunk drives arbitrary bytes through the prelude, the chunk reader
// and the document reader: each may only fail with a typed error or io.EOF,
// never panic. It also checks that Append followed by Read round-trips any
// payload, alone and inside a document.
func FuzzChunk(f *testing.F) {
	doc := fuzzFormat.AppendPrelude(nil)
	doc = Append(doc, TypeHeader, []byte(`{"seed":1}`))
	doc = Append(doc, TypeBody, []byte{1, 2, 3})
	doc = Append(doc, 200, []byte("future extension"))
	doc = Append(doc, TypeBody, nil)
	doc = AppendTrailer(doc, 2)
	f.Add(doc, byte(TypeBody))
	f.Add(doc[:len(doc)-5], byte(0))
	f.Add(fuzzFormat.AppendPrelude(nil), byte(TypeTrailer))
	f.Add(Append(fuzzFormat.AppendPrelude(nil), TypeTrailer, make([]byte, 8)), byte(TypeHeader))
	f.Add([]byte{0xff, 0, 0, 0, 0}, byte(0xff))

	f.Fuzz(func(t *testing.T, data []byte, typ byte) {
		// Raw stream: prelude, then chunks until the stream fails or ends.
		r := bytes.NewReader(data)
		err := fuzzFormat.ReadPrelude(r)
		for err == nil {
			_, _, err = fuzzFormat.Read(r)
		}
		if !typed(err) {
			t.Fatalf("stream: untyped error %v", err)
		}

		// Document: header, bodies, trailer.
		d, _, err := fuzzFormat.Open(bytes.NewReader(data))
		if err == nil {
			for err == nil {
				_, err = d.Next()
			}
			if errors.Is(err, io.EOF) && err != io.EOF {
				t.Fatalf("document: wrapped io.EOF %v", err)
			}
		}
		if !typed(err) {
			t.Fatalf("document: untyped error %v", err)
		}

		// Round trip: the input as one payload, alone and as a body.
		data = data[:min(len(data), int(fuzzFormat.MaxPayload))]
		gotTyp, got, err := fuzzFormat.Read(bytes.NewReader(Append(nil, typ, data)))
		if err != nil || gotTyp != typ || !bytes.Equal(got, data) {
			t.Fatalf("Append/Read: typ %d payload %x err %v, want typ %d payload %x", gotTyp, got, err, typ, data)
		}
		enc := Append(fuzzFormat.AppendPrelude(nil), TypeHeader, nil)
		enc = AppendTrailer(Append(enc, TypeBody, data), 1)
		d, _, err = fuzzFormat.Open(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("Open of a written document: %v", err)
		}
		if got, err = d.Next(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("document body %x err %v, want %x", got, err, data)
		}
		if _, err = d.Next(); err != io.EOF || d.Count() != 1 {
			t.Fatalf("after the only body: err %v count %d, want io.EOF and 1", err, d.Count())
		}
	})
}
