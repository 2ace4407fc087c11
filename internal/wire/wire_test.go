package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"time"
)

// sample is a record of every field type the codec has.
type sample struct {
	n    int
	i    int64
	u    uint64
	ok   bool
	s    string
	list []int64
}

func (v *sample) fields(c *Codec) {
	Int(c, &v.n)
	Int(c, &v.i)
	Int(c, &v.u)
	c.Bool(&v.ok)
	c.String(&v.s)
	v.list = Slice(c, v.list, 8)
	for i := range v.list {
		Int(c, &v.list[i])
	}
}

func (v *sample) equal(w *sample) bool {
	return v.n == w.n && v.i == w.i && v.u == w.u && v.ok == w.ok && v.s == w.s && slices.Equal(v.list, w.list)
}

func encode(v *sample) []byte {
	c := NewEncoder(nil)
	v.fields(c)
	return c.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, v := range []sample{
		{},
		{n: -1, i: math.MinInt64, u: math.MaxUint64, ok: true, s: "x\x00\xff", list: []int64{1, -2, 3}},
		{n: math.MaxInt64, s: string(make([]byte, 1000)), list: []int64{0}},
	} {
		b := encode(&v)
		var back sample
		if err := Decode(b, back.fields); err != nil || !back.equal(&v) {
			t.Errorf("%+v came back as %+v (%v)", v, back, err)
		}
		if again := encode(&back); !bytes.Equal(again, b) {
			t.Errorf("%+v re-encoded as %x, first as %x", v, again, b)
		}
	}
}

// TestMalformed: input that ends early, a length longer than what is left,
// bytes left over and a bool that is neither 0 nor 1 all fail the decode.
func TestMalformed(t *testing.T) {
	good := encode(&sample{s: "abc", list: []int64{7}})
	strLen := 8 + 8 + 8 + 1 // where the string's length starts
	long := bytes.Clone(good)
	binary.LittleEndian.PutUint32(long[strLen:], uint32(len(good)))
	badBool := bytes.Clone(good)
	badBool[strLen-1] = 2
	for name, b := range map[string][]byte{
		"empty":            nil,
		"short":            good[:len(good)-1],
		"a long string":    long,
		"trailing bytes":   append(bytes.Clone(good), 0),
		"a bool of 2":      badBool,
		"half an integer":  good[:4],
		"no string length": good[:strLen+2],
	} {
		var v sample
		if err := Decode(b, v.fields); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Decode = %v, want ErrMalformed", name, err)
		}
	}
}

// TestLenBound: a decoded count must fit what is left of the input at the
// least bytes each item takes, so a count alone allocates nothing.
func TestLenBound(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 3)
	b = append(b, make([]byte, 24)...)
	if n := NewDecoder(b).Len(0, 8); n != 3 {
		t.Errorf("3 items of 8 in 24 bytes: Len = %d", n)
	}
	c := NewDecoder(b)
	if n := c.Len(0, 9); n != 0 || c.Err() == nil {
		t.Errorf("3 items of 9 in 24 bytes: Len = %d, Err = %v; want 0 and a failure", n, c.Err())
	}
	c = NewDecoder(binary.LittleEndian.AppendUint32(nil, math.MaxUint32))
	if s := Slice[int64](c, nil, 0); s != nil || c.Err() == nil {
		t.Errorf("a count of 2^32-1 items of at least one byte in no bytes: %d items, Err = %v", len(s), c.Err())
	}
}

// TestAllocs pins what the codec allocates: nothing to encode into room the
// buffer has or to decode integers, one string per decoded string.
func TestAllocs(t *testing.T) {
	v := sample{n: 1, ok: true, s: "abc"}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		c := NewEncoder(buf[:0])
		Int(c, &v.n)
		c.Bool(&v.ok)
		c.String(&v.s)
	}); n != 0 {
		t.Errorf("encoding into a buffer with room: %v allocs", n)
	}
	ints := encode(&sample{n: 5})[:8]
	if n := testing.AllocsPerRun(100, func() {
		var x int
		c := NewDecoder(ints)
		Int(c, &x)
	}); n != 0 {
		t.Errorf("decoding an integer: %v allocs", n)
	}
	str := NewEncoder(nil)
	str.String(&v.s)
	if n := testing.AllocsPerRun(100, func() {
		var s string
		NewDecoder(str.Bytes()).String(&s)
	}); n != 1 {
		t.Errorf("decoding a string: %v allocs, want 1", n)
	}
}

func TestRecord(t *testing.T) {
	v := sample{n: 42, s: "hello", list: []int64{1, 2}}
	rec := AppendRecord([]byte("prefix"), 9, v.fields)
	if string(rec[:6]) != "prefix" {
		t.Fatalf("AppendRecord lost what the buffer held: %q", rec[:6])
	}
	rec = rec[6:]
	if n := binary.LittleEndian.Uint32(rec); int(n) != len(rec)-4 || rec[4] != 9 {
		t.Fatalf("header %x for a %d-byte record", rec[:5], len(rec))
	}
	kind, body, err := ReadRecord(bytes.NewReader(rec))
	var back sample
	if err != nil || kind != 9 || Decode(body, back.fields) != nil || !back.equal(&v) {
		t.Fatalf("ReadRecord = kind %d, %+v, %v", kind, back, err)
	}
	// A body longer than a read chunk arrives whole.
	big := sample{s: string(bytes.Repeat([]byte{0xa5}, 3*readChunk+5))}
	kind, body, err = ReadRecord(bytes.NewReader(AppendRecord(nil, 1, big.fields)))
	if err != nil || kind != 1 || Decode(body, back.fields) != nil || back.s != big.s {
		t.Fatalf("a %d-byte record: kind %d, %v", len(big.s), kind, err)
	}
}

func TestReadRecordErrors(t *testing.T) {
	header := func(n uint32) []byte { return append(binary.LittleEndian.AppendUint32(nil, n), 1) }
	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"nothing", nil, io.EOF},
		{"half a header", header(5)[:3], io.ErrUnexpectedEOF},
		{"length 0", header(0), ErrMalformed},
		{"over the cap", header(MaxRecordBytes + 1), ErrMalformed},
		{"a body cut short", append(header(9), 1, 2, 3), io.ErrUnexpectedEOF},
		{"a header and no body", header(9), io.ErrUnexpectedEOF},
	} {
		if _, _, err := ReadRecord(bytes.NewReader(c.in)); !errors.Is(err, c.want) {
			t.Errorf("%s: ReadRecord = %v, want %v", c.name, err, c.want)
		}
	}
	kind, body, err := ReadRecord(bytes.NewReader(header(1)))
	if err != nil || kind != 1 || len(body) != 0 {
		t.Errorf("a record of no fields: kind %d, %d bytes, %v", kind, len(body), err)
	}
}

// TestReadRecordZeroLengthOnOpenStream: a header of length 0 names no kind
// byte. It is refused once its four bytes are in, while the stream stays
// open, not after a fifth byte that may never come (FuzzSession's
// "\x00\x00\x00\x00\x00\x00\x00\x00" held Serve for its whole deadline).
func TestReadRecordZeroLengthOnOpenStream(t *testing.T) {
	r, w := io.Pipe()
	defer w.Close()
	go w.Write([]byte{0, 0, 0, 0})
	done := make(chan error, 1)
	go func() {
		_, _, err := ReadRecord(r)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("ReadRecord = %v, want ErrMalformed", err)
		}
	case <-time.After(5 * time.Second):
		r.Close()
		t.Fatal("ReadRecord still waits for a kind byte after a zero length")
	}
}
