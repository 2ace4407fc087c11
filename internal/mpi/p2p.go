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
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrTag, tag)
	}
	return c.sendCtx(c.ctx, dst, tag, data)
}

// sendCtx performs the transport-level send on an explicit context; the
// collectives use it with the internal collective context. Nothing is
// copied or allocated here: the transport reads data until Deliver returns
// and keeps none of it (see Transport).
func (c *Comm) sendCtx(ctx uint64, dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(c.group) {
		return fmt.Errorf("%w: send to rank %d of comm size %d", ErrRank, dst, len(c.group))
	}
	if tr := c.env.tracer; tr != nil {
		tr.Record(perf.KSend, int64(c.group[dst]), int64(tag), int64(len(data)), 0)
	}
	return c.env.tr.Deliver(c.group[dst], Packet{Ctx: ctx, Src: c.rank, SrcWorld: c.env.worldRank, Tag: tag, Data: data})
}

// checkSource validates a receive's source rank.
func (c *Comm) checkSource(src int) error {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		return fmt.Errorf("%w: recv from rank %d of comm size %d", ErrRank, src, len(c.group))
	}
	return nil
}

// Recv blocks until a message matching (src, tag) arrives on the
// communicator and returns its payload. src may be AnySource and tag may be
// AnyTag. The returned slice is owned by the caller.
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	if err := c.checkSource(src); err != nil {
		return nil, Status{}, err
	}
	return c.recvCtx(c.ctx, src, tag, nil)
}

// recvCtx is the blocking receive on an explicit context, into dst when it
// is non-nil. It returns the payload as a slice the caller owns: dst, or one
// of the message's exact size.
func (c *Comm) recvCtx(ctx uint64, src, tag int, dst []byte) ([]byte, Status, error) {
	m, err := c.env.eng.recv(ctx, src, tag, dst)
	if err != nil {
		return nil, Status{}, err
	}
	return m.consume(dst)
}

// recvInto is Recv with a destination: it blocks until a message matching
// (src, tag) arrives and leaves its payload in dst, which must have exactly
// the message's length — any other is an *ErrTruncated, with the message
// consumed and dst untouched. Nothing is allocated: a rendezvous payload is
// read from the connection straight into dst (DESIGN.md §12), an eager or
// in-process one is copied into it once, out of a buffer that is recycled.
func (c *Comm) recvInto(src, tag int, dst []byte) (Status, error) {
	if err := c.checkSource(src); err != nil {
		return Status{}, err
	}
	if dst == nil {
		dst = []byte{}
	}
	_, st, err := c.recvCtx(c.ctx, src, tag, dst)
	return st, err
}

// Request is a posted receive: the one nonblocking operation. Wait blocks
// until it completes and returns the payload; Cancel withdraws it.
//
// The posted record lives inside the request — one object, whose completion
// channel is made at the first post — so a request its caller keeps costs
// nothing to post again: StartRecvInto on a request whose previous receive
// is over (its Wait returned, or it was never posted) starts the next one.
// That is MPI_Recv_init and MPI_Start in one call; xfer.Plan and the models'
// halo exchange re-arm theirs every period.
//
// Wait is idempotent, and safe to call from several goroutines unless the
// receive has a destination (StartRecvInto, StartRecvFloatsInto), which
// allows one waiter.
type Request struct {
	rec precv   // the posted-receive record; rec.dst non-nil marks a receive into the caller's buffer
	eng *engine // engine the record is posted on, for Cancel

	// latched: completion arrives as rec.ready's token — the record went on
	// the engine's queue, or matched a rendezvous placeholder whose payload
	// is still to come. Whoever holds the token may settle the request.
	latched bool
	settled bool // data, st and err are final

	data []byte
	st   Status
	err  error

	floats []float64 // big-endian host: settle decodes the payload into it
}

// Wait blocks until the receive completes. For a receive that matched a
// rendezvous placeholder it also waits for the payload transfer itself, so a
// successful Wait always returns the full message.
func (r *Request) Wait() ([]byte, Status, error) {
	if r.latched {
		<-r.rec.ready
		r.settle()
		r.rec.ready <- struct{}{}
	}
	return r.data, r.st, r.err
}

// settle turns the completed record into the request's result, once: the
// payload wait of a rendezvous, then the packet's end of life — into the
// caller's buffer or out as a slice of its own. The caller holds the token,
// or is the post itself.
func (r *Request) settle() {
	if r.settled {
		return
	}
	r.settled = true
	m, err := r.rec.pkt, r.rec.err
	if err == nil {
		m, err = awaitPayload(m)
	}
	if r.rec.pkt = nil; err != nil {
		r.err = err
		return
	}
	if r.data, r.st, r.err = m.consume(r.rec.dst); r.err == nil && r.floats != nil {
		r.err = decodeFloatsInto(r.floats, r.data)
	}
}

// Cancel withdraws a receive that has not matched yet and reports whether
// the cancellation won the race against an incoming message. On success the
// posted-receive record is removed from the engine (so an abandoned receive
// leaks nothing) and Wait returns ErrCanceled; on failure the request
// completed normally and Wait returns its result. Canceling a request that
// already completed, or was never posted, returns false and has no effect.
func (r *Request) Cancel() bool {
	if r.eng == nil {
		return false
	}
	return r.eng.cancel(&r.rec)
}

// StartRecvInto posts a receive into dst on a request the caller owns: dst
// holds the payload once Wait returns nil — Wait's slice is dst — and must be
// left alone until then; a message of any other length is an *ErrTruncated.
// r must be idle — never used, or used by a receive whose Wait has returned —
// and nothing is allocated once r has been posted before. A failure to post
// is what r's Wait returns; Cancel leaves dst untouched.
func (c *Comm) StartRecvInto(r *Request, src, tag int, dst []byte) {
	if dst == nil {
		dst = []byte{}
	}
	r.floats = nil
	c.startRecv(r, c.ctx, src, tag, dst)
}

// startRecv posts a nonblocking receive on r over an explicit context; the
// collectives use it with the internal collective context for their
// pipelined rounds. A non-nil dst makes it a receive into that buffer.
func (c *Comm) startRecv(r *Request, ctx uint64, src, tag int, dst []byte) {
	r.eng, r.latched, r.settled = c.env.eng, false, false
	r.rec.pkt, r.rec.err, r.rec.dst = nil, nil, dst // not the previous receive's
	r.data, r.st, r.err = nil, Status{}, c.checkSource(src)
	if r.err != nil {
		return
	}
	m, _, err := r.eng.postRecv(&r.rec, ctx, src, tag, dst)
	switch {
	case err != nil:
		r.err = err
	case m == nil:
		r.latched = true // queued: the engine completes the record
	case m.Rdv != nil:
		// Matched a rendezvous placeholder: the payload is still to come, and
		// waiting for it is Wait's, behind the token like any completion.
		r.rec.arm()
		r.rec.pkt, r.latched = m, true
		r.rec.ready <- struct{}{}
	default:
		r.rec.pkt = m
		r.settle()
	}
}

// irecvCtx is startRecv on a fresh request: how the collectives post a
// receive ahead of their own send, or several at once. A request that will
// never be waited on is Canceled, or it occupies a queue slot until the
// engine closes.
func (c *Comm) irecvCtx(ctx uint64, src, tag int) *Request {
	r := new(Request)
	c.startRecv(r, ctx, src, tag, nil)
	return r
}
