package mpi

import (
	"fmt"

	"mph/internal/mpi/perf"
)

// Send delivers data to rank dst of the communicator with the given tag.
// Below the transport's eager threshold (and always in-process) it may
// complete before the matching receive is posted; above it, it blocks until
// the receiver has matched and the payload is on the wire. Either way the
// caller may reuse data as soon as it returns.
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.send(dst, tag, data, nil)
}

// Ssend is a synchronous send: it blocks until the matching receive has
// consumed the message (MPI_Ssend semantics). If the destination rank dies
// or the job aborts before the message is consumed, Ssend returns the typed
// failure (*ErrPeerLost, *AbortError) instead of blocking forever; an
// orderly engine shutdown releases it with a nil error.
func (c *Comm) Ssend(dst, tag int, data []byte) error {
	ack := make(chan error, 1)
	if err := c.send(dst, tag, data, ack); err != nil {
		return err
	}
	return <-ack
}

func (c *Comm) send(dst, tag int, data []byte, ack chan error) error {
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrTag, tag)
	}
	return c.sendCtx(c.ctx, dst, tag, data, ack)
}

// sendCtx performs the transport-level send on an explicit context; the
// collectives use it with the internal collective context.
func (c *Comm) sendCtx(ctx uint64, dst, tag int, data []byte, ack chan error) error {
	if dst < 0 || dst >= len(c.group) {
		return fmt.Errorf("%w: send to rank %d of comm size %d", ErrRank, dst, len(c.group))
	}
	// Copy the payload: ranks must not share mutable memory. The copy is
	// elided when the transport is done with the caller's slice at Deliver's
	// return — tcpnet writes a rendezvous payload straight from it (writev)
	// and copies an eager one into its frame; DESIGN.md §12.
	var buf []byte
	if len(data) > 0 {
		if b := c.env.borrower; b != nil && b.BorrowsPayload(c.group[dst]) {
			buf = data
		} else {
			buf = make([]byte, len(data))
			copy(buf, data)
		}
	}
	if tr := c.env.tracer; tr != nil {
		tr.Record(perf.KSend, int64(c.group[dst]), int64(tag), int64(len(data)), 0)
	}
	p := &Packet{Ctx: ctx, Src: c.rank, SrcWorld: c.env.worldRank, Tag: tag, Data: buf, Ack: ack}
	return c.env.tr.Deliver(c.group[dst], p)
}

// Recv blocks until a message matching (src, tag) arrives on the
// communicator and returns its payload. src may be AnySource and tag may be
// AnyTag. The returned slice is owned by the caller.
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		return nil, Status{}, fmt.Errorf("%w: recv from rank %d of comm size %d", ErrRank, src, len(c.group))
	}
	return c.recvCtx(c.ctx, src, tag)
}

func (c *Comm) recvCtx(ctx uint64, src, tag int) ([]byte, Status, error) {
	m, err := c.env.eng.recv(ctx, src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	return m.Data, Status{Source: m.Src, Tag: m.Tag, Len: len(m.Data)}, nil
}

// RecvInto is Recv with a destination: it blocks until a message matching
// (src, tag) arrives and leaves its payload in dst, which must have exactly
// the message's length — any other is an *ErrTruncated, with the message
// consumed and dst untouched. Nothing payload-sized is allocated: a
// rendezvous payload is read from the connection straight into dst
// (DESIGN.md §12), an eager or in-process one is copied into it once.
func (c *Comm) RecvInto(src, tag int, dst []byte) (Status, error) {
	_, st, err := c.IrecvInto(src, tag, dst).Wait()
	return st, err
}

// landInto completes a receive into the caller's buffer: the length check,
// and the one copy of a payload that did not arrive in dst itself.
func landInto(dst []byte, m *Packet) error {
	if len(m.Data) != len(dst) {
		return &ErrTruncated{Posted: len(dst), Arrived: len(m.Data)}
	}
	if len(dst) > 0 && &m.Data[0] != &dst[0] {
		copy(dst, m.Data)
	}
	return nil
}

// Probe blocks until a message matching (src, tag) is available and returns
// its status without consuming it.
func (c *Comm) Probe(src, tag int) (Status, error) {
	return c.env.eng.probe(c.ctx, src, tag)
}

// IProbe reports whether a message matching (src, tag) is available right
// now, without consuming it.
func (c *Comm) IProbe(src, tag int) (Status, bool) {
	return c.env.eng.tryProbe(c.ctx, src, tag)
}

// Request represents an in-flight nonblocking operation. Wait blocks until
// completion and returns the received payload (nil for sends).
//
// A request that completes inline — every Isend, and an Irecv whose message
// had already arrived — carries its result directly and allocates no
// channel; otherwise it holds the posted-receive record whose targeted
// completion Wait parks on. Wait is idempotent, and safe to call from
// several goroutines unless the receive has a destination (IrecvInto,
// IrecvFloatsInto): each Wait may be the one that fills it.
type Request struct {
	pr   *precv  // nil when the operation completed inline
	pkt  *Packet // inline-matched rendezvous placeholder awaiting its payload
	eng  *engine // engine the record is posted on, for Cancel
	data []byte
	st   Status
	err  error

	dst    []byte    // IrecvInto: the caller's buffer; non-nil marks the kind
	floats []float64 // IrecvFloatsInto, big-endian host: Wait decodes into it
}

// Wait blocks until the operation completes. For a receive that matched a
// rendezvous placeholder it also waits for the payload transfer itself, so a
// successful Wait always returns the full message.
func (r *Request) Wait() ([]byte, Status, error) {
	data, st, err := r.wait()
	if err == nil && r.floats != nil {
		err = decodeFloatsInto(r.floats, data)
	}
	return data, st, err
}

func (r *Request) wait() ([]byte, Status, error) {
	m := r.pkt
	if r.pr != nil {
		<-r.pr.ready
		if r.pr.err != nil {
			return nil, Status{}, r.pr.err
		}
		m = r.pr.pkt
	} else if m == nil {
		return r.data, r.st, r.err
	}
	if m.Rdv != nil {
		if err := m.Rdv.await(); err != nil {
			return nil, Status{}, err
		}
	}
	st := Status{Source: m.Src, Tag: m.Tag, Len: len(m.Data)}
	if r.dst != nil {
		return r.dst, st, landInto(r.dst, m)
	}
	return m.Data, st, nil
}

// Done reports whether the operation has completed, without blocking. A
// receive that matched a rendezvous placeholder is not done until its
// payload has landed (or the transfer failed).
func (r *Request) Done() bool {
	m := r.pkt
	if r.pr != nil {
		select {
		case <-r.pr.ready:
		default:
			return false
		}
		if r.pr.err != nil {
			return true
		}
		m = r.pr.pkt
	}
	return m == nil || m.Rdv == nil || m.Rdv.completed()
}

// Cancel withdraws a receive that has not matched yet and reports whether
// the cancellation won the race against an incoming message. On success the
// posted-receive record is removed from the engine (so an abandoned Irecv
// leaks nothing) and Wait returns ErrCanceled; on failure the request
// completed normally and Wait returns its result. Canceling an
// already-completed or send request returns false and has no effect.
func (r *Request) Cancel() bool {
	if r.pr == nil {
		return false
	}
	return r.eng.cancel(r.pr)
}

// Isend is Send behind a request: it returns when Send would — for a
// rendezvous-sized payload, after the receiver has matched — so its request
// is always complete and data is the caller's again. It exists so that code
// written against the MPI nonblocking style ports directly; code that must
// not block on its peer posts its receives first (SendRecv, xfer.Plan).
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return &Request{err: c.Send(dst, tag, data)}
}

// Irecv starts a nonblocking receive; Wait on the returned request yields
// the payload. It is a true posted receive: an O(1) enqueue into the
// engine's posted-receive queue (or an inline completion against an
// already-arrived message), never a goroutine. A request that will never be
// waited on should be Canceled, or it occupies a queue slot until the
// communicator's engine closes.
func (c *Comm) Irecv(src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		return &Request{err: fmt.Errorf("%w: recv from rank %d of comm size %d", ErrRank, src, len(c.group))}
	}
	return c.irecvCtx(c.ctx, src, tag, nil)
}

// IrecvInto is Irecv with a destination (see RecvInto): dst holds the
// payload once Wait returns nil — Wait's slice is dst — and must be left
// alone until then. Cancel works as for Irecv and leaves dst untouched.
func (c *Comm) IrecvInto(src, tag int, dst []byte) *Request {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		return &Request{err: fmt.Errorf("%w: recv from rank %d of comm size %d", ErrRank, src, len(c.group))}
	}
	if dst == nil {
		dst = []byte{}
	}
	return c.irecvCtx(c.ctx, src, tag, dst)
}

// irecvCtx posts a nonblocking receive on an explicit context; the
// collectives use it with the internal collective context for their
// pipelined rounds. A non-nil dst makes it a receive into that buffer.
func (c *Comm) irecvCtx(ctx uint64, src, tag int, dst []byte) *Request {
	m, pr, err := c.env.eng.postRecv(ctx, src, tag, dst)
	switch {
	case err != nil:
		return &Request{err: err}
	case pr != nil:
		return &Request{pr: pr, eng: c.env.eng, dst: dst}
	case m.Rdv != nil:
		// Matched a rendezvous placeholder: completion means the payload
		// landed, which Wait/Done observe through the packet.
		return &Request{pkt: m, dst: dst}
	}
	r := &Request{data: m.Data, st: Status{Source: m.Src, Tag: m.Tag, Len: len(m.Data)}}
	if dst != nil {
		r.data, r.err = dst, landInto(dst, m)
	}
	return r
}

// WaitAll waits for every request and returns the first error encountered.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SendRecv performs a combined send to dst and receive from src, safe
// against the head-to-head deadlock of two blocking calls.
func (c *Comm) SendRecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status, error) {
	rreq := c.Irecv(src, recvTag)
	if err := c.Send(dst, sendTag, data); err != nil {
		return nil, Status{}, err
	}
	return rreq.Wait()
}
