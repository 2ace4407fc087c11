// Package wire is the field codec of the launch plane's binary records: a
// rank's session with its launcher (package bootstrap) and the perf.Snapshot
// a report carries. An integer is 8 bytes little-endian, a bool 1; a string
// or a count is a u32 length and what it counts. One Codec both encodes and
// decodes, so a record's layout is one list of calls, each naming a field.
// A decoder checks every length against the bytes still unread before it
// allocates anything for it.
package wire

import (
	"encoding/binary"
	"errors"
)

// errMalformed is a record that ends early, names a length longer than what
// is left of it, or has bytes left over after its last field.
var errMalformed = errors.New("wire: malformed record")

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
		return errMalformed
	}
	return c.err
}

// take consumes the next n bytes of a decoder's input, or fails it.
func (c *Codec) take(n int) []byte {
	if c.err != nil || n > len(c.b) {
		c.err = errMalformed
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

// Bool codes a bool as one byte.
func (c *Codec) Bool(p *bool) {
	if !c.dec && *p {
		c.b = append(c.b, 1)
	} else if !c.dec {
		c.b = append(c.b, 0)
	} else if q := c.take(1); q != nil {
		*p = q[0] != 0
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
		c.err = errMalformed
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
