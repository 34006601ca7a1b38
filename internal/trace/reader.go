package trace

import (
	"bufio"
	"compress/flate"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"saiyan/internal/chunk"
)

// Reader streams records out of a trace. It transparently decompresses
// gzip input (sniffed from the stream's first bytes) and reads the chunk
// document through internal/chunk, which verifies every CRC, skips unknown
// chunk types, and tells a clean end (trailer, then io.EOF) from a
// truncated file (ErrTruncated).
type Reader struct {
	doc  *chunk.Document
	gz   *gzip.Reader
	file io.Closer // underlying file when opened via Open
	hdr  Header
	err  error // sticky terminal state (io.EOF, ErrTruncated, ...)
}

// NewReader opens a trace stream, reading the prelude and header chunk
// before returning. The caller keeps ownership of r.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{}
	if err := tr.begin(r); err != nil {
		return nil, err
	}
	return tr, nil
}

// Open opens a trace file; gzip compression is detected from the content,
// not the file name. Close releases the file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr := &Reader{file: f}
	if err := tr.begin(f); err != nil {
		f.Close()
		return nil, err
	}
	return tr, nil
}

// begin sniffs gzip, then opens the chunk document and parses its header.
func (r *Reader) begin(src io.Reader) error {
	br := bufio.NewReader(src)
	in := io.Reader(br)
	if sig, err := br.Peek(2); err == nil && sig[0] == 0x1f && sig[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("%w: gzip layer: %v", ErrCorrupt, err)
		}
		r.gz = gz
		in = bufio.NewReader(gz)
	}
	doc, header, err := format.Open(typedReader{in})
	if errors.Is(err, ErrVersion) && r.gz != nil {
		// A version field that the gzip layer's own checksum disowns is
		// damage, not a newer format: read on to let gzip judge it.
		if _, zerr := io.Copy(io.Discard, typedReader{in}); errors.Is(zerr, ErrCorrupt) {
			err = zerr
		}
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(header, &r.hdr); err != nil {
		return fmt.Errorf("%w: decoding header: %v", ErrCorrupt, err)
	}
	r.doc = doc
	return nil
}

// typedReader gives every read failure of a trace's byte source one of the
// package sentinels, so no untyped error escapes the reader: damage the
// gzip layer detects is ErrCorrupt, and any other failure reads as if the
// file had been cut there, ErrTruncated. End of stream passes through for
// the chunk reader to judge.
type typedReader struct{ r io.Reader }

func (t typedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return n, err
	}
	var flateErr flate.CorruptInputError
	if errors.As(err, &flateErr) || errors.Is(err, gzip.ErrChecksum) || errors.Is(err, gzip.ErrHeader) {
		return n, fmt.Errorf("%w: gzip layer: %v", ErrCorrupt, err)
	}
	return n, fmt.Errorf("%w: %v", ErrTruncated, err)
}

// Header returns the trace metadata.
func (r *Reader) Header() Header { return r.hdr }

// Frames returns the number of records delivered so far.
func (r *Reader) Frames() uint64 { return r.doc.Count() }

// Next returns the next frame record. It returns io.EOF after a complete
// trace has been drained, ErrTruncated when the stream ends before its
// trailer, and ErrCorrupt on CRC or structural damage. The terminal state
// is sticky.
func (r *Reader) Next() (*Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	payload, err := r.doc.Next()
	if err != nil {
		r.err = err
		return nil, err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		r.err = err
		return nil, err
	}
	return rec, nil
}

// Complete reports whether the trailer was reached, i.e. the trace was
// read to a clean end.
func (r *Reader) Complete() bool { return r.err == io.EOF }

// Close releases the gzip layer and the underlying file when the Reader
// owns it.
func (r *Reader) Close() error {
	var errs []error
	if r.gz != nil {
		errs = append(errs, r.gz.Close())
		r.gz = nil
	}
	if r.file != nil {
		errs = append(errs, r.file.Close())
		r.file = nil
	}
	return errors.Join(errs...)
}
