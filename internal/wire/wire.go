// Package wire is the one framing and field codec of the launch plane: a
// rank's session with its launcher (package bootstrap), the block protocol
// between a launcher and whatever spawns its ranks (package mpirun), a
// rank's trace dump (package perf), and the perf.Snapshot a report carries.
// A record is `u32 length | u8 kind | fields`, little-endian, the length
// counting the kind byte and the fields as in tcpnet's frame header; each
// stream numbers its own kinds. An integer is 8 bytes, a bool 1; a string or
// a count is a u32 length and what it counts. One Codec both encodes and
// decodes, so a record's layout is one list of calls, each naming a field.
// A decoder checks every length against the bytes still unread before it
// allocates anything for it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxRecordBytes caps a record's length: a header naming more is refused
// before anything is read for the record.
const MaxRecordBytes = 16 << 20

// ErrMalformed marks a record whose header names no kind byte or more than
// MaxRecordBytes, or whose fields end early, name a length longer than what
// is left of the record, or leave bytes over.
var ErrMalformed = errors.New("wire: malformed record")

// readChunk is how much of a record's body a reader takes in at a time.
const readChunk = 64 << 10

// AppendRecord appends one record of the given kind to b, its fields coded
// by fields.
func AppendRecord(b []byte, kind byte, fields func(*Codec)) []byte {
	start := len(b)
	c := NewEncoder(append(b, 0, 0, 0, 0, kind))
	fields(c)
	b = c.Bytes()
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// ReadRecord reads the next record off r and returns its kind and the bytes
// of its fields. The body grows as it arrives, readChunk at a time, so a
// header naming more bytes than ever come costs the reader at most that.
// I/O errors are returned bare; a body cut short is io.ErrUnexpectedEOF.
// A length of 0 is refused as soon as its four bytes are in: it names no
// kind byte, so a reader that waited for one would wait on the stream's
// next record, or until its deadline. A header that arrives whole is still
// one read.
func ReadRecord(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	got, err := io.ReadAtLeast(r, hdr[:], 4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: a record of length 0", ErrMalformed)
	}
	if got < len(hdr) {
		if _, err := io.ReadFull(r, hdr[4:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	kind := hdr[4]
	if n > MaxRecordBytes {
		return kind, nil, fmt.Errorf("%w: kind %d, %d bytes", ErrMalformed, kind, n)
	}
	var body []byte
	for size := int(n - 1); len(body) < size; {
		k := min(size-len(body), readChunk)
		body = slices.Grow(body, k)
		if _, err := io.ReadFull(r, body[len(body):len(body)+k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return kind, nil, err
		}
		body = body[:len(body)+k]
	}
	return kind, body, nil
}

// Decode reads a record's fields from b, as fields codes them, and fails
// unless they fill b exactly.
func Decode(b []byte, fields func(*Codec)) error {
	c := NewDecoder(b)
	fields(c)
	return c.Err()
}

// Codec encodes or decodes one record's fields.
type Codec struct {
	b   []byte // encoding: the record so far; decoding: what is still unread
	dec bool
	err error // a decoder's first failure; every later field reads as zero
}

// NewEncoder appends fields to b.
func NewEncoder(b []byte) *Codec { return &Codec{b: b} }

// NewDecoder reads fields from b.
func NewDecoder(b []byte) *Codec { return &Codec{b: b, dec: true} }

// Decoding reports whether c fills fields in rather than appending them.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns what an encoder has appended, its initial buffer included.
func (c *Codec) Bytes() []byte { return c.b }

// Err returns nil once a decoder has read every field and nothing is left.
func (c *Codec) Err() error {
	if c.err == nil && c.dec && len(c.b) > 0 {
		return ErrMalformed
	}
	return c.err
}

// take consumes the next n bytes of a decoder's input, or fails it.
func (c *Codec) take(n int) []byte {
	if c.err != nil || n > len(c.b) {
		c.err = ErrMalformed
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// Int codes an integer as 8 bytes.
func Int[T ~int | ~int64 | ~uint64](c *Codec, p *T) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*p))
	} else if q := c.take(8); q != nil {
		*p = T(binary.LittleEndian.Uint64(q))
	}
}

// Bool codes a bool as one byte, 0 or 1; a decoder refuses any other.
func (c *Codec) Bool(p *bool) {
	if !c.dec && *p {
		c.b = append(c.b, 1)
	} else if !c.dec {
		c.b = append(c.b, 0)
	} else if q := c.take(1); q != nil && q[0] > 1 {
		c.err = ErrMalformed
	} else if q != nil {
		*p = q[0] == 1
	}
}

// Len codes a length or a count: n when encoding; when decoding, the count
// read, once what is left of the input can hold that many items of at least
// each bytes (0 if it cannot).
func (c *Codec) Len(n, each int) int {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(n))
		return n
	}
	if q := c.take(4); q != nil {
		if n = int(binary.LittleEndian.Uint32(q)); n <= len(c.b)/max(each, 1) {
			return n
		}
		c.err = ErrMalformed
	}
	return 0
}

// String codes a string.
func (c *Codec) String(p *string) {
	if n := c.Len(len(*p), 1); !c.dec {
		c.b = append(c.b, *p...)
	} else if q := c.take(n); q != nil {
		*p = string(q)
	}
}

// Slice codes a slice's length and returns the slice whose elements the
// caller then codes: s when encoding; when decoding, a new one of the length
// read (nil for none), each element taking at least each bytes.
func Slice[T any](c *Codec, s []T, each int) []T {
	if n := c.Len(len(s), each); c.dec {
		if n == 0 {
			return nil
		}
		return make([]T, n)
	}
	return s
}
