package mpi

import (
	"io"
	"sync"
)

// Rendezvous is the receive-side state of one large-message rendezvous
// transfer (DESIGN.md §12). The TCP transport posts a placeholder Packet
// carrying a Rendezvous when an RTS frame arrives: the placeholder occupies
// the sender's position in the engine's match order (preserving the
// non-overtaking invariant) while promising PayloadLen bytes that have not
// crossed the wire yet. The engine signals the match through the Rendezvous,
// the transport answers with a CTS frame, and once the payload lands in its
// final buffer the transport finishes the rendezvous, releasing the receive
// that matched the placeholder.
//
// The type is exported only for transport implementations; in-process
// traffic never creates one.
type Rendezvous struct {
	n int // promised payload length in bytes

	mu      sync.Mutex
	matched bool
	done    bool  // the payload landed
	err     error // first failure wins; set before doneCh closes

	// dst is the matched receive's own buffer (StartRecvInto), installed at the
	// match — before any CTS, hence before any payload — when it has the
	// promised length. While a transport stream reads into it, filling is set
	// and the waiters are not released, whatever the outcome: the application
	// never gets back a buffer something still writes to.
	dst     []byte
	filling bool

	matchCh chan struct{} // closed at the consuming match, or on failure
	doneCh  chan struct{} // closed once the outcome is known and dst is quiet
}

// NewRendezvous creates the receive-side record for a transfer promising n
// payload bytes.
func NewRendezvous(n int) *Rendezvous {
	return &Rendezvous{
		n:       n,
		matchCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
}

// PayloadLen returns the promised payload length in bytes.
func (r *Rendezvous) PayloadLen() int { return r.n }

// Matched returns a channel closed when the placeholder has been consumed by
// a matching receive — the transport's cue to send CTS — or when the
// rendezvous failed first; MatchErr distinguishes the two.
func (r *Rendezvous) Matched() <-chan struct{} { return r.matchCh }

// MatchErr reports the failure that ended the rendezvous before (or instead
// of) a match, or nil after a genuine match.
func (r *Rendezvous) MatchErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// signalMatched records the consuming match and, for a receive that brought
// its own buffer of the promised length, where the payload is to land (with
// any other length the payload takes a buffer of its own and the receive
// reports the truncation). Called by the engine under its own lock;
// idempotent, and a no-op after a failure.
func (r *Rendezvous) signalMatched(dst []byte) {
	r.mu.Lock()
	if !r.matched && r.err == nil {
		if len(dst) == r.n {
			r.dst = dst
		}
		r.matched = true
		close(r.matchCh)
	}
	r.mu.Unlock()
}

// settle releases the waiters once the transfer has an outcome and no stream
// is still reading into the receiver's buffer. Caller holds r.mu.
func (r *Rendezvous) settle() {
	if (r.done || r.err != nil) && !r.filling && !r.completed() {
		close(r.doneCh)
	}
}

// Fail ends the rendezvous with err: the payload will never arrive (peer
// died, job aborted, transport closed). Waiters on both channels unblock and
// observe err — the payload's only once a stream caught reading into the
// receiver's buffer has let go, which the cause of the failure (a closed
// connection, a read deadline) makes prompt. Idempotent; a no-op after
// successful completion.
func (r *Rendezvous) Fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done || r.err != nil {
		return
	}
	r.err = err
	if !r.matched {
		r.matched = true
		close(r.matchCh)
	}
	r.settle()
}

// await blocks until the payload is delivered or the rendezvous fails. The
// engine's receive paths call it after a receive consumes a placeholder
// packet; a nil return guarantees the packet's Data is the full payload.
func (r *Rendezvous) await() error {
	<-r.doneCh
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// completed reports whether await would return without blocking (payload
// landed or transfer failed).
func (r *Rendezvous) completed() bool {
	select {
	case <-r.doneCh:
		return true
	default:
		return false
	}
}

// delivered reports whether the payload actually landed (as opposed to the
// rendezvous failing or still being in flight). The engine's peer-loss sweep
// uses it to tell consumable placeholders from poisoned ones.
func (r *Rendezvous) delivered() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done && r.err == nil
}

// ReceiveRendezvous reads the promised payload, next on rd, into its final
// buffer and releases the matched receive: the receive's own buffer when it
// posted one (StartRecvInto), else an exactly-sized one the packet then owns.
//
// It reports false, having read nothing, when the transfer is already over —
// a redial replayed a payload that did land, or the rendezvous failed — and
// the caller must discard the bytes: a late copy never touches a buffer the
// application has got back. An error is rd's; the rendezvous stays open, as
// a sender-side retry on another stream may still complete it (into a buffer
// of its own while this stream has not let go).
func (p *Packet) ReceiveRendezvous(rd io.Reader) (bool, error) {
	r := p.Rdv
	r.mu.Lock()
	if r.done || r.err != nil {
		r.mu.Unlock()
		return false, nil
	}
	buf, own := r.dst, r.dst != nil && !r.filling
	if own {
		r.filling = true
	} else {
		buf = make([]byte, r.n)
	}
	r.mu.Unlock()

	_, err := io.ReadFull(rd, buf)

	r.mu.Lock()
	if own {
		r.filling = false
	}
	if err == nil && !r.done && r.err == nil {
		p.Data = buf
		r.done = true
	}
	r.settle()
	r.mu.Unlock()
	return true, err
}

// PayloadLen returns the packet's payload length: the promised length for a
// rendezvous placeholder whose data is still in flight, the actual data
// length otherwise. Status.Len and per-peer accounting use it so a
// placeholder is indistinguishable from a delivered message.
func (p *Packet) PayloadLen() int {
	if p.Rdv != nil && p.Data == nil {
		return p.Rdv.n
	}
	return len(p.Data)
}
