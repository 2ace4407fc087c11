package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// Wildcard values for the receives.
const (
	// AnySource matches a message from any sender rank.
	AnySource = -1
	// AnyTag matches a message with any user tag.
	AnyTag = -1
)

// Undefined is the color passed to CommSplit by ranks that should not be
// part of any resulting communicator (MPI_UNDEFINED).
const Undefined = -1

// Common errors returned by communication primitives.
var (
	// ErrClosed reports delivery to or reception on a shut-down engine.
	ErrClosed = errors.New("mpi: engine closed")
	// ErrRank reports a rank argument outside the communicator's group.
	ErrRank = errors.New("mpi: rank out of range")
	// ErrTag reports a negative user tag on a send.
	ErrTag = errors.New("mpi: invalid tag")
	// ErrCanceled reports a Wait on a request whose posted receive was
	// withdrawn with Request.Cancel before a message matched it.
	ErrCanceled = errors.New("mpi: request canceled")
)

// ErrTruncated reports a receive into a caller-supplied buffer
// (RecvFloatsInto, StartRecvInto) whose length is not the matched message's:
// MPI_ERR_TRUNCATE, except that a short message is as wrong as a long one.
// The message is consumed and the buffer left as it was.
type ErrTruncated struct {
	Posted, Arrived int // buffer and message length in bytes
}

// Error implements the error interface.
func (e *ErrTruncated) Error() string {
	return fmt.Sprintf("mpi: message of %d bytes matched a receive buffer of %d", e.Arrived, e.Posted)
}

// Status describes a received message.
type Status struct {
	// Source is the sender's rank in the communicator the message was
	// received on.
	Source int
	// Tag is the message tag.
	Tag int
	// Len is the payload length in bytes.
	Len int
}

// Packet is the wire unit a Transport moves: a matching envelope plus a
// payload. It is exported so transport implementations (the TCP transport in
// package tcpnet) can serialize it; normal users never touch it.
//
// Outbound it is the value Transport.Deliver takes, Data being the sender's
// own slice, read until Deliver returns and not kept. Inbound it is a record
// a transport gets from its PacketPool, fills and posts to the engine, which
// owns it from then on — a rendezvous placeholder jointly with the
// transport, each holding its record (Rendezvous).
type Packet struct {
	// Ctx is the communicator context the packet belongs to.
	Ctx uint64
	// Src is the sender's rank within that communicator.
	Src int
	// SrcWorld is the sender's world rank, carried for per-peer
	// performance accounting (package perf); matching never consults it.
	SrcWorld int
	// Tag is the user or collective tag.
	Tag int
	// Data is the payload: borrowed from the sender on an outbound packet,
	// the packet's own on an inbound one.
	Data []byte
	// Fill, on an outbound packet, stands in for Data, which is then nil: the
	// payload is Floats float64s that the transport has Fill write, in
	// ascending pieces, where it sends them (FillInto, FillPiece). A
	// transport that must send the payload again runs Fill again.
	Fill   func(lo int, seg []float64)
	Floats int
	// Rdv, when non-nil, marks this packet as a rendezvous placeholder: the
	// payload has been announced (RTS) but not transferred yet. The packet
	// is the record's own (PacketPool.GetRendezvous); the engine signals the
	// consuming match through it, and the receive that matched the packet
	// waits on it before touching Data. Only transports with a two-protocol
	// wire path (tcpnet) set it.
	Rdv *Rendezvous

	// Set on packets from a PacketPool: where a consumed packet goes back
	// to, the payload buffer that goes with it, and the free-list link.
	pool *PacketPool
	buf  []byte
	next *Packet
}

// packetPoolDepth bounds each of a PacketPool's free lists: a rank in
// steady state holds a handful of inbound messages at once, and a burst of
// unexpected ones should not stay resident for the rest of the job.
const packetPoolDepth = 64

// PacketPool is a transport's bounded free lists of inbound packets with the
// payload buffers that travel with them, and of rendezvous records with
// their placeholders, so a message in steady state allocates none of them.
// The receive that consumes a pooled packet gives it back, under one rule: a
// buffer the pool recycles is never returned to a caller — a receive with a
// destination has the payload copied into it, any other gets an exact-size
// slice of its own. Nothing is allocated before the first message, and a
// payload above maxBuf gets a buffer of its own, which is not kept and which
// the receive hands to its caller as it is.
//
// The pool also queues the placeholders the engine matched, in match order,
// for the transport's CTS writer (Matches, NextMatch).
type PacketPool struct {
	maxBuf int
	wake   chan struct{} // a token whenever due may have grown since NextMatch last found it empty

	mu    sync.Mutex
	free  *Packet
	n     int
	rfree *Rendezvous // records between transfers
	rn    int
	due   *Rendezvous // matched placeholders whose CTS is to be sent, oldest first
	last  *Rendezvous // due's tail

	scratch [][]float64 // PieceBytes-sized buffers between folds and fills
}

// PieceBytes is the size of the scratch a rendezvous fold or fill moves its
// payload through, one piece at a time (EXPERIMENTS.md S22). A constant, not
// a knob.
const PieceBytes = 16 << 10

// GetScratch returns a scratch buffer of a fold's or a fill's piece, from the
// pool's free list or, the first time a rank needs one more than it had at
// once, made: a rank holds one per concurrent fold or fill, and none on a job
// that moves no rendezvous payload piece by piece.
func (pp *PacketPool) GetScratch() []float64 {
	var s []float64
	pp.mu.Lock()
	if n := len(pp.scratch); n > 0 {
		s, pp.scratch = pp.scratch[n-1], pp.scratch[:n-1]
	}
	pp.mu.Unlock()
	if s == nil {
		s = make([]float64, PieceBytes/8)
	}
	return s
}

// PutScratch gives back a buffer GetScratch returned.
func (pp *PacketPool) PutScratch(s []float64) {
	pp.mu.Lock()
	if len(pp.scratch) < packetPoolDepth {
		pp.scratch = append(pp.scratch, s)
	}
	pp.mu.Unlock()
}

// NewPacketPool returns an empty pool keeping buffers of up to maxBuf bytes.
func NewPacketPool(maxBuf int) *PacketPool {
	return &PacketPool{maxBuf: maxBuf, wake: make(chan struct{}, 1)}
}

// Get returns a packet whose Data has length n (nil for n == 0), for the
// transport to fill in and post. A recycled buffer too small for n is
// replaced: the buffers in circulation grow to what the traffic repeats.
func (pp *PacketPool) Get(n int) *Packet {
	pp.mu.Lock()
	p := pp.free
	if p != nil {
		pp.free, p.next = p.next, nil
		pp.n--
	}
	pp.mu.Unlock()
	if p == nil {
		p = &Packet{pool: pp}
	}
	switch {
	case n == 0:
	case n <= cap(p.buf):
		p.Data = p.buf[:n]
	case n <= pp.maxBuf:
		p.buf = make([]byte, n)
		p.Data = p.buf
	default:
		p.Data = make([]byte, n)
	}
	return p
}

// Copy returns a pooled copy of an outbound packet, payload included — a
// fill writes it straight into the copy: how a delivery that stays inside the
// process keeps nothing of the sender's.
func (pp *PacketPool) Copy(p Packet) *Packet {
	q := pp.Get(p.PayloadLen())
	q.Ctx, q.Src, q.SrcWorld, q.Tag = p.Ctx, p.Src, p.SrcWorld, p.Tag
	if p.Fill != nil {
		p.FillInto(q.Data)
	} else {
		copy(q.Data, p.Data)
	}
	return q
}

// FillInto has an outbound fill packet's Fill write the whole payload, in
// one piece, into b, which holds its 8·Floats bytes 8-byte aligned, as the
// transports' buffers do: the wire encoding, in place.
func (p *Packet) FillInto(b []byte) {
	xs := floatView(b)
	p.Fill(0, xs)
	toWire(xs)
}

// FillPiece has an outbound fill packet's Fill write floats [lo, lo+k) of
// the payload into scratch, k being as many as scratch holds or are left,
// and returns their wire encoding: scratch's own memory.
func (p *Packet) FillPiece(scratch []float64, lo int) []byte {
	xs := scratch[:min(len(scratch), p.Floats-lo)]
	p.Fill(lo, xs)
	return toWire(xs)
}

// sink is where a receive puts its payload: into dst, the caller's own
// buffer, or, when fold is set, through fold, n bytes of float64s in
// ascending pieces; with neither, the payload comes back as a slice of its
// own.
type sink struct {
	dst  []byte
	fold func(lo int, seg []float64)
	n    int
}

// posted reports whether the receive brought a place for the payload, and
// of how many bytes.
func (to *sink) posted() (int, bool) {
	if to.fold != nil {
		return to.n, true
	}
	return len(to.dst), to.dst != nil
}

// recycle returns a consumed packet to its pool — a placeholder by dropping
// the engine's hold on its record; a packet no pool made is left to the
// collector. The caller must not touch the packet afterwards.
func (p *Packet) recycle() {
	if p.Rdv != nil {
		p.Rdv.Release()
		return
	}
	pp := p.pool
	if pp == nil {
		return
	}
	*p = Packet{pool: pp, buf: p.buf}
	pp.mu.Lock()
	if pp.n < packetPoolDepth {
		p.next, pp.free = pp.free, p
		pp.n++
	}
	pp.mu.Unlock()
}

// consume ends a matched packet's life, the one call every receive makes
// once its payload is there. With a destination: the length check and the
// one copy of a payload that did not arrive in dst itself. With a fold: the
// length check and the fold of a payload a transport stream did not already
// fold. Without either: the caller gets the payload as a slice of its own — a
// copy if it sits in a recycled buffer. Either way the packet goes back to
// its pool.
func (p *Packet) consume(to sink) ([]byte, Status, error) {
	defer p.recycle()
	data, st := p.Data, Status{Source: p.Src, Tag: p.Tag, Len: p.PayloadLen()}
	want, ok := to.posted()
	switch {
	case !ok:
		if len(data) > 0 && len(data) <= cap(p.buf) {
			data = append(make([]byte, 0, len(data)), data...)
		}
		return data, st, nil
	case st.Len != want:
		return to.dst, st, &ErrTruncated{Posted: want, Arrived: st.Len}
	case to.fold != nil:
		if p.Rdv == nil || data != nil { // else a stream folded it as it came in
			foldBytes(to.fold, data)
		}
		return nil, st, nil
	case len(to.dst) > 0 && &data[0] != &to.dst[0]:
		copy(to.dst, data)
	}
	return to.dst, st, nil
}

// String formats the packet's matching envelope for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("packet{ctx=%x src=%d tag=%d len=%d}", p.Ctx, p.Src, p.Tag, p.PayloadLen())
}

// matches reports whether the packet satisfies a receive posted for
// (src, tag) on context ctx, honoring AnySource/AnyTag wildcards.
func (p *Packet) matches(ctx uint64, src, tag int) bool {
	if p.Ctx != ctx {
		return false
	}
	if src != AnySource && p.Src != src {
		return false
	}
	if tag != AnyTag && p.Tag != tag {
		return false
	}
	return true
}
