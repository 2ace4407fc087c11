package mpi

import (
	"errors"
	"fmt"
)

// Wildcard values for Recv and Probe.
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

// ErrTruncated reports a receive into a caller-supplied buffer (RecvInto and
// kin) whose length is not the matched message's: MPI_ERR_TRUNCATE, except
// that a short message is as wrong as a long one. The message is consumed
// and the buffer left as it was.
type ErrTruncated struct {
	Posted, Arrived int // buffer and message length in bytes
}

// Error implements the error interface.
func (e *ErrTruncated) Error() string {
	return fmt.Sprintf("mpi: message of %d bytes matched a receive buffer of %d", e.Arrived, e.Posted)
}

// Status describes a received or probed message.
type Status struct {
	// Source is the sender's rank in the communicator the message was
	// received on.
	Source int
	// Tag is the message tag.
	Tag int
	// Len is the payload length in bytes.
	Len int
}

// Packet is the wire unit a Transport moves: a matching envelope plus an
// owned payload copy. It is exported so transport implementations (the TCP
// transport in package tcpnet) can serialize it; normal users never touch
// it.
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
	// Data is the payload, owned by the packet.
	Data []byte
	// Ack, when non-nil, carries the message's completion back to a
	// synchronous sender (Ssend). On a consuming match the engine closes the
	// channel, which reads as a nil error; when the message can never be
	// consumed (engine aborted, job torn down) the engine sends the typed
	// failure before closing. Creators must allocate it with capacity 1 so
	// the failure send never blocks the engine.
	Ack chan error
	// Rdv, when non-nil, marks this packet as a rendezvous placeholder: the
	// payload has been announced (RTS) but not transferred yet. The engine
	// signals the consuming match through it, and the receive that matched
	// the packet waits on it before touching Data. Only transports with a
	// two-protocol wire path (tcpnet) set it.
	Rdv *Rendezvous
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
