package mpi

import (
	"io"
	"sync"
)

// Rendezvous is the receive-side record of one large-message rendezvous
// transfer (DESIGN.md §12), and it carries the placeholder Packet the
// transport posts when an RTS frame arrives: the placeholder occupies the
// sender's position in the engine's match order (preserving the
// non-overtaking invariant) while promising PayloadLen bytes that have not
// crossed the wire yet. At the consuming match the engine queues the record
// for its CTS, which the transport's CTS writer takes with
// PacketPool.NextMatch; once the payload lands in its final buffer the
// transport finishes the rendezvous, releasing the receive that matched the
// placeholder.
//
// Records come from a PacketPool's bounded free list and go back to it when
// the last holder lets go. Each holder counts once: the transport's table
// entry (the hold GetRendezvous returns), the engine from the post until the
// receive that took the placeholder is done with it, the CTS queue from the
// match to NextMatch, and a transport stream for the length of its read
// (Hold, Release). So no stream, table entry or failure sweep reaches a
// record on the free list; one that tries panics.
//
// The type is exported only for transport implementations; in-process
// traffic never creates one.
type Rendezvous struct {
	pkt  Packet      // the placeholder; pkt.Rdv points back here
	pool *PacketPool // the free list the record goes back to
	id   uint64      // the sender's transfer id, which the CTS quotes
	n    int         // promised payload length in bytes

	// ready carries one token once the outcome is known and dst is quiet.
	// Made with the record, it serves every transfer the record carries.
	ready chan struct{}
	next  *Rendezvous // free-list or CTS-queue link, under pool.mu

	mu      sync.Mutex
	refs    int // holders, above; 0 only on the free list
	matched bool
	landed  bool  // the payload landed
	settled bool  // the token is out
	err     error // first failure wins; set before the token

	// dst is the matched receive's own buffer (StartRecvInto), and fold its
	// fold (StartRecvFloatsFold), installed at the match — before any CTS,
	// hence before any payload — when the receive takes the promised length.
	// While a transport stream reads into dst or folds, filling is set and
	// the waiters are not released, whatever the outcome: the application
	// never gets back a buffer something still writes to, nor returns while
	// its fold still runs.
	dst     []byte
	fold    func(lo int, seg []float64)
	filling bool

	// foldMu is held by the stream that folds: a second copy of the payload,
	// which a sender's redial writes on another stream, waits for the first
	// stream to let go, and then folds only what folded does not count.
	foldMu sync.Mutex
	folded int // payload bytes already handed to fold; under foldMu
}

// PayloadLen returns the promised payload length in bytes.
func (r *Rendezvous) PayloadLen() int { return r.n }

// Hold adds a holder: a stream takes one before it reads the payload, while
// the table entry it found the record under still holds it.
func (r *Rendezvous) Hold() {
	r.mu.Lock()
	r.hold()
	r.mu.Unlock()
}

// hold is Hold with r.mu held.
func (r *Rendezvous) hold() {
	if r.refs <= 0 {
		panic("mpi: rendezvous record held after it was recycled")
	}
	r.refs++
}

// Release drops one holder; the last one gives the record back to its pool.
// The caller must not touch the record afterwards.
func (r *Rendezvous) Release() {
	r.mu.Lock()
	if r.refs <= 0 {
		panic("mpi: rendezvous record released after it was recycled")
	}
	r.refs--
	last := r.refs == 0
	r.mu.Unlock()
	if last {
		r.pool.putRendezvous(r)
	}
}

// signalMatched records the consuming match and, for a receive that brought
// its own buffer or fold of the promised length, where the payload is to go
// (with any other length the payload takes a buffer of its own and the
// receive reports the truncation), then queues the record for its CTS.
// Called by the engine under its own lock; a no-op after a failure.
func (r *Rendezvous) signalMatched(to sink) {
	r.mu.Lock()
	due := !r.matched && r.err == nil
	if due {
		if n, ok := to.posted(); ok && n == r.n {
			r.dst, r.fold = to.dst, to.fold
		}
		r.matched = true
		r.hold() // the CTS queue's
	}
	r.mu.Unlock()
	if due {
		r.pool.queueMatch(r)
	}
}

// settle releases the waiter once the transfer has an outcome and no stream
// is still reading into the receiver's buffer. Caller holds r.mu.
func (r *Rendezvous) settle() {
	if (r.landed || r.err != nil) && !r.filling && !r.settled {
		r.settled = true
		r.ready <- struct{}{}
	}
}

// Fail ends the rendezvous with err: the payload will never arrive (peer
// died, job aborted, transport closed). A queued CTS is not sent, and the
// waiter observes err — only once a stream caught reading into the
// receiver's buffer has let go, which the cause of the failure (a closed
// connection, a read deadline) makes prompt. Idempotent; a no-op after
// successful completion. The caller must hold the record.
func (r *Rendezvous) Fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refs <= 0 {
		panic("mpi: rendezvous record failed after it was recycled")
	}
	if r.landed || r.err != nil {
		return
	}
	r.err = err
	r.settle()
}

// await blocks until the payload is delivered or the rendezvous fails. The
// engine's receive paths call it once, after a receive consumes a
// placeholder packet; a nil return guarantees the packet's Data is the full
// payload.
func (r *Rendezvous) await() error {
	<-r.ready
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// delivered reports whether the payload actually landed (as opposed to the
// rendezvous failing or still being in flight). The engine's peer-loss sweep
// uses it to tell consumable placeholders from poisoned ones.
func (r *Rendezvous) delivered() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.landed && r.err == nil
}

// GetRendezvous returns the placeholder of a transfer promising n payload
// bytes under the sender's transfer id, its Rdv held once: the caller's
// hold, which becomes its table entry's. The caller fills in the envelope
// and posts the packet; the engine takes a hold of its own.
func (pp *PacketPool) GetRendezvous(n int, id uint64) *Packet {
	pp.mu.Lock()
	r := pp.rfree
	if r != nil {
		pp.rfree, r.next = r.next, nil
		pp.rn--
	}
	pp.mu.Unlock()
	if r == nil {
		r = &Rendezvous{pool: pp, ready: make(chan struct{}, 1)}
		r.pkt.Rdv = r
	}
	r.id, r.n, r.refs = id, n, 1
	return &r.pkt
}

// putRendezvous takes back a record its last holder released, clearing the
// transfer it carried.
func (pp *PacketPool) putRendezvous(r *Rendezvous) {
	select {
	case <-r.ready: // settled, never awaited: the placeholder was dropped unconsumed
	default:
	}
	r.pkt = Packet{Rdv: r}
	r.matched, r.landed, r.settled, r.err, r.dst, r.fold, r.folded = false, false, false, nil, nil, nil, 0
	pp.mu.Lock()
	if pp.rn < packetPoolDepth {
		r.next, pp.rfree = pp.rfree, r
		pp.rn++
	}
	pp.mu.Unlock()
}

// queueMatch appends a matched placeholder, held for the queue, to the CTS
// queue and wakes the writer.
func (pp *PacketPool) queueMatch(r *Rendezvous) {
	pp.mu.Lock()
	if pp.last != nil {
		pp.last.next = r
	} else {
		pp.due = r
	}
	pp.last = r
	pp.mu.Unlock()
	select {
	case pp.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// Matches returns the channel that carries a token after a placeholder
// matched: the CTS writer's cue to call NextMatch until it reports false.
func (pp *PacketPool) Matches() <-chan struct{} { return pp.wake }

// NextMatch takes the oldest matched placeholder off the CTS queue and
// returns what its CTS needs: the sender's world rank and the transfer id.
// ok is false once the queue is empty. A rendezvous that failed while
// queued is skipped: it gets no CTS.
func (pp *PacketPool) NextMatch() (src int, id uint64, ok bool) {
	for {
		pp.mu.Lock()
		r := pp.due
		if r != nil {
			pp.due, r.next = r.next, nil
			if pp.due == nil {
				pp.last = nil
			}
		}
		pp.mu.Unlock()
		if r == nil {
			return 0, 0, false
		}
		r.mu.Lock()
		failed := r.err != nil
		r.mu.Unlock()
		src, id = r.pkt.SrcWorld, r.id
		r.Release()
		if !failed {
			return src, id, true
		}
	}
}

// ReceiveRendezvous reads the promised payload, next on rd, into its final
// buffer and releases the matched receive: the receive's own buffer when it
// posted one (StartRecvInto), its fold when it posted one
// (StartRecvFloatsFold), else an exactly-sized buffer the packet then owns.
// The caller holds the record for the length of the call.
//
// It reports false, having read nothing, when the transfer is already over —
// a redial replayed a payload that did land, or the rendezvous failed — and
// the caller must discard the bytes: a late copy never touches a buffer the
// application has got back. An error is rd's; the rendezvous stays open, as
// a sender-side retry on another stream may still complete it (into a buffer
// of its own while this stream has not let go, or by folding the rest).
func (p *Packet) ReceiveRendezvous(rd io.Reader) (bool, error) {
	r := p.Rdv
	r.mu.Lock()
	if r.landed || r.err != nil {
		r.mu.Unlock()
		return false, nil
	}
	if r.fold != nil {
		r.mu.Unlock()
		return r.receiveFold(rd)
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
	if err == nil && !r.landed && r.err == nil {
		p.Data = buf
		r.landed = true
	}
	r.settle()
	r.mu.Unlock()
	return true, err
}

// receiveFold is ReceiveRendezvous for a receive with a fold: the payload
// comes off rd one scratch buffer at a time, each piece handed to the fold
// once it is whole, in ascending order. The bytes a cut copy of the payload
// already folded are read again and skipped. Once the rendezvous has failed
// the rest is read and not folded: the fold of a receive that returned no
// longer runs.
func (r *Rendezvous) receiveFold(rd io.Reader) (bool, error) {
	r.foldMu.Lock()
	defer r.foldMu.Unlock()
	r.mu.Lock()
	if r.landed || r.err != nil {
		r.mu.Unlock()
		return false, nil
	}
	r.filling = true
	r.mu.Unlock()

	scratch := r.pool.GetScratch()
	var err error
	for lo, k := 0, 0; lo < r.n; lo += 8 * k {
		k = min(len(scratch), (r.n-lo)/8)
		if _, err = io.ReadFull(rd, floatBytes(scratch[:k])); err != nil {
			break
		}
		r.mu.Lock()
		failed := r.err != nil
		r.mu.Unlock()
		if lo >= r.folded && !failed {
			fromWire(scratch[:k])
			r.fold(lo/8, scratch[:k])
			r.folded = lo + 8*k
		}
	}
	r.pool.PutScratch(scratch)

	r.mu.Lock()
	r.filling = false
	if err == nil && r.err == nil {
		r.landed = true
	}
	r.settle()
	r.mu.Unlock()
	return true, err
}

// PayloadLen returns the packet's payload length: the promised length for a
// rendezvous placeholder whose data is still in flight or was folded, the
// length of what Fill writes for an outbound fill, the actual data length
// otherwise. Status.Len and per-peer accounting use it so a placeholder is
// indistinguishable from a delivered message.
func (p *Packet) PayloadLen() int {
	switch {
	case p.Fill != nil:
		return 8 * p.Floats
	case p.Rdv != nil && p.Data == nil:
		return p.Rdv.n
	}
	return len(p.Data)
}
