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
// owns it from then on.
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
	// Rdv, when non-nil, marks this packet as a rendezvous placeholder: the
	// payload has been announced (RTS) but not transferred yet. The engine
	// signals the consuming match through it, and the receive that matched
	// the packet waits on it before touching Data. Only transports with a
	// two-protocol wire path (tcpnet) set it.
	Rdv *Rendezvous

	// Set on packets from a PacketPool: where a consumed packet goes back
	// to, the payload buffer that goes with it, and the free-list link.
	pool *PacketPool
	buf  []byte
	next *Packet
}

// packetPoolDepth bounds a PacketPool's free list: a rank in steady state
// holds a handful of inbound messages at once, and a burst of unexpected
// ones should not stay resident for the rest of the job.
const packetPoolDepth = 64

// PacketPool is a transport's bounded free list of inbound packets and the
// payload buffers that travel with them, so a message in steady state
// allocates neither. The receive that consumes a pooled packet gives it
// back, under one rule: a buffer the pool recycles is never returned to a
// caller — a receive with a destination has the payload copied into it, any
// other gets an exact-size slice of its own. Nothing is allocated before the
// first message, and a payload above maxBuf gets a buffer of its own, which
// is not kept and which the receive hands to its caller as it is.
type PacketPool struct {
	maxBuf int

	mu   sync.Mutex
	free *Packet
	n    int
}

// NewPacketPool returns an empty pool keeping buffers of up to maxBuf bytes.
func NewPacketPool(maxBuf int) *PacketPool { return &PacketPool{maxBuf: maxBuf} }

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

// Copy returns a pooled copy of an outbound packet, payload included: how a
// delivery that stays inside the process keeps nothing of the sender's.
func (pp *PacketPool) Copy(p Packet) *Packet {
	q := pp.Get(len(p.Data))
	q.Ctx, q.Src, q.SrcWorld, q.Tag = p.Ctx, p.Src, p.SrcWorld, p.Tag
	copy(q.Data, p.Data)
	return q
}

// recycle returns a consumed packet to its pool; a packet no pool made is
// left to the collector. The caller must not touch the packet afterwards.
func (p *Packet) recycle() {
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
// one copy of a payload that did not arrive in dst itself. Without: the
// caller gets the payload as a slice of its own — a copy if it sits in a
// recycled buffer. Either way the packet goes back to its pool.
func (p *Packet) consume(dst []byte) ([]byte, Status, error) {
	defer p.recycle()
	data, st := p.Data, Status{Source: p.Src, Tag: p.Tag, Len: len(p.Data)}
	switch {
	case dst == nil:
		if len(data) > 0 && len(data) <= cap(p.buf) {
			data = append(make([]byte, 0, len(data)), data...)
		}
		return data, st, nil
	case len(data) != len(dst):
		return dst, st, &ErrTruncated{Posted: len(dst), Arrived: len(data)}
	case len(dst) > 0 && &data[0] != &dst[0]:
		copy(dst, data)
	}
	return dst, st, nil
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
