// Package chunk owns the binary envelope that every byte stream in this
// repository shares: trace files (internal/trace), the TCP wire protocol and
// its capture files (internal/server), and flight-recorder dumps
// (internal/flight). Each of those formats keeps only what is its own — a
// Format value (magic, version, payload bound), its chunk type numbers and
// its payload encoders — and reads and writes the envelope through this
// package. This doc comment is the grammar's single statement.
//
// # Streams
//
//	stream  := prelude chunk*
//	prelude := magic(8) version(u32)
//	chunk   := type(u8) length(u32) payload(length bytes) crc32(u32)
//
// All integers are little-endian. The CRC-32 (IEEE) covers the type byte,
// the length field and the payload, so every byte after the prelude is
// integrity-checked. A length above the format's payload bound is
// corruption, not load, and is rejected before the payload is allocated.
// The version changes only when the framing itself changes; readers reject
// versions they do not know.
//
// # Documents
//
// Traces and flight dumps are documents, a chunk stream with a fixed shape:
//
//	document := prelude header (body | other)* trailer
//	header   := chunk of TypeHeader; the format's metadata; must come first
//	body     := chunk of TypeBody; one record of the format
//	other    := chunk of any other type; skipped once its CRC verifies
//	trailer  := chunk of TypeTrailer; u64 count of body chunks; must be last
//
// Skipping unknown chunk types keeps minor additions backward compatible.
// A second header, a trailer whose count disagrees with the bodies read, and
// any byte after the trailer are corruption. A document that ends before its
// trailer is truncated: every body read before the cut is still delivered,
// so a partial recording stays usable while the damage stays visible.
//
// The wire protocol is a bare stream: its messages are chunks, with no
// header or trailer, and the end of a connection ends the stream.
//
// # Errors
//
// Damage is reported as ErrCorrupt, a stream cut short as ErrTruncated and
// an unknown version as ErrVersion, each wrapped with positional detail;
// test with errors.Is. A stream that ends cleanly between chunks reads as
// io.EOF. Other errors of the underlying reader pass through unchanged, so
// a network reader's deadline or close stays visible to its caller.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Sentinel errors shared by every format built on this package.
var (
	// ErrCorrupt marks structural damage: bad magic, a CRC mismatch, an
	// impossible length, or a malformed payload.
	ErrCorrupt = errors.New("chunk: corrupt")
	// ErrTruncated marks a stream that ended inside its prelude, inside a
	// chunk, or — for a document — before its trailer.
	ErrTruncated = errors.New("chunk: truncated")
	// ErrVersion marks a format version this build does not understand.
	ErrVersion = errors.New("chunk: unsupported version")
)

// Document chunk types (see the package doc).
const (
	TypeHeader  = 1
	TypeBody    = 2
	TypeTrailer = 3
)

// Format is one byte-stream format: its prelude and its payload bound.
type Format struct {
	Magic      string // exactly 8 bytes
	Version    uint32
	MaxPayload uint32 // largest payload a reader accepts
}

// AppendPrelude appends the format's magic and version to dst.
func (f Format) AppendPrelude(dst []byte) []byte {
	dst = append(dst, f.Magic...)
	return binary.LittleEndian.AppendUint32(dst, f.Version)
}

// WritePrelude writes the format's magic and version to w.
func (f Format) WritePrelude(w io.Writer) error {
	_, err := w.Write(f.AppendPrelude(nil))
	return err
}

// ReadPrelude reads and validates the format's magic and version.
func (f Format) ReadPrelude(r io.Reader) error {
	var buf [12]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return eofTruncated(err, "stream ended inside the prelude")
	}
	if string(buf[:8]) != f.Magic {
		return fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, buf[:8], f.Magic)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != f.Version {
		return fmt.Errorf("%w: version %d, this build speaks %d", ErrVersion, v, f.Version)
	}
	return nil
}

// Append appends one framed chunk (type, length, payload, CRC) to dst.
func Append(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Write frames one chunk and writes it to w.
func Write(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(Append(nil, typ, payload))
	return err
}

// AppendTrailer appends a document's trailer chunk declaring count bodies.
func AppendTrailer(dst []byte, count uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], count)
	return Append(dst, TypeTrailer, b[:])
}

// Read reads and CRC-verifies one chunk. A stream that ends cleanly before
// the chunk returns io.EOF; one that ends inside it returns ErrTruncated.
func (f Format) Read(r io.Reader) (typ byte, payload []byte, err error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, eofTruncated(err, "stream ended inside a chunk header")
	}
	n := binary.LittleEndian.Uint32(head[1:])
	if n > f.MaxPayload {
		return 0, nil, fmt.Errorf("%w: chunk of %d bytes exceeds the %d byte limit", ErrCorrupt, n, f.MaxPayload)
	}
	body := make([]byte, int(n)+4) // payload + crc
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, eofTruncated(err, "stream ended inside a chunk body")
	}
	payload = body[:n]
	crc := crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(body[n:]); got != crc {
		return 0, nil, fmt.Errorf("%w: chunk CRC %08x, computed %08x", ErrCorrupt, got, crc)
	}
	return head[0], payload, nil
}

// eofTruncated turns an end of stream inside a fixed-size read into
// ErrTruncated and passes any other reader error through.
func eofTruncated(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	return err
}

// Document reads one header/body/trailer document (see the package doc).
// Its terminal state is sticky.
type Document struct {
	f     Format
	r     io.Reader
	count uint64 // bodies delivered
	err   error  // io.EOF after a valid trailer, else the first failure
}

// Open reads a document's prelude and header chunk and returns the reader
// positioned at the first body, together with the header payload.
func (f Format) Open(r io.Reader) (*Document, []byte, error) {
	if err := f.ReadPrelude(r); err != nil {
		return nil, nil, err
	}
	typ, header, err := f.Read(r)
	if err == io.EOF {
		return nil, nil, fmt.Errorf("%w: stream ended before the header chunk", ErrTruncated)
	}
	if err != nil {
		return nil, nil, err
	}
	if typ != TypeHeader {
		return nil, nil, fmt.Errorf("%w: first chunk type %d, want header", ErrCorrupt, typ)
	}
	return &Document{f: f, r: r}, header, nil
}

// Count returns the number of bodies delivered so far.
func (d *Document) Count() uint64 { return d.count }

// Next returns the next body payload, skipping chunk types the grammar does
// not name. It returns io.EOF once a valid trailer ends the document.
func (d *Document) Next() ([]byte, error) {
	for d.err == nil {
		typ, payload, err := d.f.Read(d.r)
		switch {
		case err == io.EOF:
			d.err = fmt.Errorf("%w: stream ended after %d bodies without a trailer", ErrTruncated, d.count)
		case err != nil:
			d.err = err
		case typ == TypeBody:
			d.count++
			return payload, nil
		case typ == TypeTrailer:
			d.err = d.trailer(payload)
		case typ == TypeHeader:
			d.err = fmt.Errorf("%w: duplicate header chunk", ErrCorrupt)
		}
	}
	return nil, d.err
}

// trailer checks the trailer's count and that nothing follows it, which
// also makes a compressing reader underneath validate its own checksum.
func (d *Document) trailer(payload []byte) error {
	if len(payload) != 8 {
		return fmt.Errorf("%w: trailer payload %d bytes, want 8", ErrCorrupt, len(payload))
	}
	if declared := binary.LittleEndian.Uint64(payload); declared != d.count {
		return fmt.Errorf("%w: trailer declares %d bodies, read %d", ErrCorrupt, declared, d.count)
	}
	var one [1]byte
	switch _, err := io.ReadFull(d.r, one[:]); err {
	case io.EOF:
		return io.EOF
	case nil:
		return fmt.Errorf("%w: data after the trailer chunk", ErrCorrupt)
	default:
		return fmt.Errorf("%w: reading past the trailer: %v", ErrCorrupt, err)
	}
}

// Decoder is a bounds-checked cursor over one chunk payload. The first
// overrun latches ErrCorrupt; every later read returns zero.
type Decoder struct {
	buf []byte
	at  int
	err error
}

// NewDecoder returns a cursor at the start of buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Take returns the next n bytes, or nil once the payload is overrun.
func (d *Decoder) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.at {
		d.err = fmt.Errorf("%w: field overruns payload (%d+%d > %d)", ErrCorrupt, d.at, n, len(d.buf))
		return nil
	}
	b := d.buf[d.at : d.at+n]
	d.at += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if b := d.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count validates an element count read from the payload against the bytes
// left BEFORE any int conversion or multiplication, so a hostile count
// (e.g. 2^31 on a 32-bit platform) latches ErrCorrupt instead of
// overflowing a bounds check or sizing an allocation.
func (d *Decoder) Count(n uint32, elemBytes int) int {
	if d.err != nil {
		return 0
	}
	if left := len(d.buf) - d.at; uint64(n)*uint64(elemBytes) > uint64(left) {
		d.err = fmt.Errorf("%w: %d elements of %d bytes overrun payload (%d bytes left)", ErrCorrupt, n, elemBytes, left)
		return 0
	}
	return int(n)
}

// Done returns the latched error, or ErrCorrupt if bytes remain unread.
func (d *Decoder) Done() error {
	if d.err == nil && d.at != len(d.buf) {
		return fmt.Errorf("%w: %d stray bytes after payload", ErrCorrupt, len(d.buf)-d.at)
	}
	return d.err
}
