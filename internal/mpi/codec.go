package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The codec helpers give point-to-point and collective calls a typed
// surface over []byte payloads. All encodings are little-endian and
// self-sized (8 bytes per element), so a decoded slice length is
// len(payload)/8.
//
// On a little-endian host that encoding is a float64 slice's own memory, so
// SendFloats and (Start)RecvFloatsInto move the slice as it lies — no encode, no
// decode, and above the eager threshold no user-space copy (DESIGN.md §12).
// The explicit encode/decode below remains their big-endian path, the codec
// of the collectives, and the public Encode*/Decode*.

// hostLittleEndian is decided once, at start-up.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes returns the memory of xs as a byte slice of 8*len(xs): the
// wire encoding of xs on a little-endian host, and a view, not a copy.
func floatBytes(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// floatView returns b's memory as float64s. b is a payload buffer of a
// transport's, made by make or behind an eager frame's pad, so it is 8-byte
// aligned and holds whole float64s; anything else is a bug.
func floatView(b []byte) []float64 {
	if len(b)%8 != 0 || (len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 != 0) {
		panic("mpi: float payload buffer misaligned or not whole floats")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// toWire turns xs into its wire encoding in place and returns it as bytes:
// nothing to do on a little-endian host.
func toWire(xs []float64) []byte {
	b := floatBytes(xs)
	if !hostLittleEndian {
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
	}
	return b
}

// fromWire turns a wire encoding into float64s in place: the inverse of
// toWire.
func fromWire(xs []float64) {
	if !hostLittleEndian {
		b := floatBytes(xs)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// foldBytes hands a whole payload that lies in a buffer of the receive's
// (an eager or in-process packet's) to fold in one piece, decoded in place.
func foldBytes(fold func(lo int, seg []float64), data []byte) {
	if len(data) > 0 {
		xs := floatView(data)
		fromWire(xs)
		fold(0, xs)
	}
}

// floatPayload returns the wire encoding of xs for a call that only reads
// it: xs's own memory on a little-endian host, an encoded copy elsewhere.
func floatPayload(xs []float64) []byte {
	if hostLittleEndian {
		return floatBytes(xs)
	}
	return encodeFloats(xs)
}

// encodeInts packs int64 values into a byte payload.
func encodeInts(xs []int64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
	return buf
}

// decodeInts unpacks a payload produced by encodeInts.
func decodeInts(buf []byte) ([]int64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: int payload length %d not a multiple of 8", len(buf))
	}
	xs := make([]int64, len(buf)/8)
	return xs, decodeIntsInto(xs, buf)
}

// decodeIntsInto unpacks a payload of exactly len(dst) elements into dst.
func decodeIntsInto(dst []int64, buf []byte) error {
	if len(buf) != 8*len(dst) {
		return &ErrTruncated{Posted: 8 * len(dst), Arrived: len(buf)}
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// encodeFloats packs float64 values into a byte payload.
func encodeFloats(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// decodeFloats unpacks a payload produced by encodeFloats.
func decodeFloats(buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: float payload length %d not a multiple of 8", len(buf))
	}
	xs := make([]float64, len(buf)/8)
	return xs, decodeFloatsInto(xs, buf)
}

// decodeFloatsInto unpacks a payload of exactly len(dst) elements into dst.
func decodeFloatsInto(dst []float64, buf []byte) error {
	if len(buf) != 8*len(dst) {
		return &ErrTruncated{Posted: 8 * len(dst), Arrived: len(buf)}
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// EncodeInts packs int64 values into a payload suitable for Send.
func EncodeInts(xs []int64) []byte { return encodeInts(xs) }

// DecodeInts unpacks a payload produced by EncodeInts.
func DecodeInts(buf []byte) ([]int64, error) { return decodeInts(buf) }

// EncodeFloats packs float64 values into a payload suitable for Send.
func EncodeFloats(xs []float64) []byte { return encodeFloats(xs) }

// DecodeFloats unpacks a payload produced by EncodeFloats.
func DecodeFloats(buf []byte) ([]float64, error) { return decodeFloats(buf) }

// SendFloats sends a float64 slice to dst with the given tag. The caller may
// reuse xs as soon as it returns, as with Send.
func (c *Comm) SendFloats(dst, tag int, xs []float64) error {
	return c.Send(dst, tag, floatPayload(xs))
}

// RecvFloatsInto receives a message of exactly len(dst) float64s matching
// (src, tag) into dst; any other length is an *ErrTruncated.
func (c *Comm) RecvFloatsInto(src, tag int, dst []float64) (Status, error) {
	if hostLittleEndian {
		return c.recvInto(src, tag, floatBytes(dst))
	}
	buf, st, err := c.Recv(src, tag)
	if err != nil {
		return st, err
	}
	return st, decodeFloatsInto(dst, buf)
}

// StartRecvFloatsInto is the nonblocking RecvFloatsInto, on a request the
// caller owns and posts again and again (see StartRecvInto): dst is filled
// by the time Wait returns nil and must be left alone until then.
func (c *Comm) StartRecvFloatsInto(r *Request, src, tag int, dst []float64) {
	if hostLittleEndian {
		c.StartRecvInto(r, src, tag, floatBytes(dst))
		return
	}
	r.floats = dst
	c.startRecv(r, c.ctx, src, tag, sink{})
}

// StartRecvFloatsFold posts a receive of exactly n float64s matching
// (src, tag) on a request the caller owns, as StartRecvInto does, that keeps
// no destination: fold takes the payload in pieces, seg holding floats
// [lo, lo+len(seg)), each piece once, in ascending order, and all of them
// before Wait returns nil. A rendezvous payload is folded as it comes off
// the connection, through a scratch buffer of the transport's, on the
// transport's goroutine; an eager or in-process one in one piece, from the
// buffer it arrived in. A message of any other length is an *ErrTruncated,
// and is not folded. seg is fold's only until it returns, and fold must not
// call into this package.
func (c *Comm) StartRecvFloatsFold(r *Request, src, tag, n int, fold func(lo int, seg []float64)) {
	r.floats = nil
	c.startRecv(r, c.ctx, src, tag, sink{fold: fold, n: 8 * n})
}

// SendFloatsFill sends n float64s to dst with the given tag, as SendFloats
// does, from no slice of the caller's: fill writes floats [lo, lo+len(seg))
// into seg, piece by piece in ascending order, where the transport puts the
// payload — the eager frame, the in-process packet, or, above the eager
// threshold, a scratch buffer of the transport's that each piece is written
// from once the receiver has matched. A transport that has to send the
// payload again runs fill again, so fill must write the same values each
// time. seg is fill's only until it returns, and fill must not call into
// this package.
func (c *Comm) SendFloatsFill(dst, tag, n int, fill func(lo int, seg []float64)) error {
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrTag, tag)
	}
	w, err := c.sendTo(dst, tag, 8*n)
	if err != nil {
		return err
	}
	return c.env.tr.Deliver(w, Packet{Ctx: c.ctx, Src: c.rank, SrcWorld: c.env.worldRank, Tag: tag, Fill: fill, Floats: n})
}
