package tcpnet

import (
	"errors"
	"fmt"
	"io"

	"mph/internal/mpi"
	"mph/internal/sock"
)

// stream is the receive side of one inbound connection: the decoder loop's
// state, and what its frame handlers reach the transport through.
type stream struct {
	t     *Transport
	r     io.Reader // the connection
	local bool      // the intra-host (Unix-socket) carrier
	size  int       // world size: the bound on a hello's rank
	peer  int       // the world rank the stream's hello named; -1 before it

	// scratch takes every frame's prefix and fixed part; an eager tail goes
	// into a recycled buffer, a rendezvous payload into the receive's own.
	scratch [prefixLen + rtsHdrLen]byte
}

// handler consumes one decoded frame whose tail bytes are still unread on
// s.r. A non-nil error ends the stream.
type handler func(s *stream, f frame, tail int) error

// handlers is the production dispatch table, indexed by frame kind.
var handlers = [len(frameTable)]handler{
	kindPacket: (*stream).onPacket,
	kindHello:  (*stream).onHello,
	kindAbort:  (*stream).onAbort,
	kindRTS:    (*stream).onRTS,
	kindCTS:    (*stream).onCTS,
	kindRData:  (*stream).onRData,
}

// errStreamDone ends a stream whose job is over: it delivered an abort, or
// the local engine stopped taking packets.
var errStreamDone = errors.New("tcpnet: stream finished")

// run is the decoder loop: read a frame's header, check it against the frame
// table and the stream's identity, hand it to its kind's handler, in stream
// order until an error. The identity rule: a stream opens with a hello naming
// a rank of this world, and every later frame that names its sender names
// that rank. So no handler — none of which allocates before it has a frame it
// wants — ever runs for a stranger, and a stranger cannot abort the job: the
// launcher's aborts come over the rank's session, never over a stream.
func (s *stream) run(hs *[len(frameTable)]handler) error {
	for {
		f, tail, err := decode(s.r, s.scratch[:])
		if err != nil {
			return err
		}
		spec := &frameTable[f.kind]
		switch {
		case s.local && !spec.unix:
			return fmt.Errorf("tcpnet: %s frame on the intra-host channel", spec.name)
		case s.peer < 0 && f.kind == kindHello && f.src >= 0 && f.src < s.size:
			s.peer = f.src
		case s.peer < 0:
			return fmt.Errorf("tcpnet: stream opened with a %s frame (rank %d), not a hello from this world", spec.name, f.src)
		case spec.hasSrc && f.src != s.peer:
			return fmt.Errorf("tcpnet: %s frame from rank %d on rank %d's stream", spec.name, f.src, s.peer)
		}
		if err := hs[f.kind](s, f, tail); err != nil {
			return err
		}
	}
}

// readLoop runs one inbound connection's stream and, whichever way it ends,
// closes and forgets the connection — a sender still writing to it must find
// out now, not when its write buffer fills, and a sender lingering in Close
// reads EOF once every frame before it is posted. How a stream ends says
// nothing about its sender's life: a live peer redials, and a dead one's
// session end reaches this rank from the launcher.
func (t *Transport) readLoop(conn *sock.Conn, local bool) {
	defer t.wg.Done()
	s := &stream{t: t, r: conn, local: local, size: len(t.peers), peer: -1}
	s.run(&handlers) //nolint:errcheck // any end is handled alike
	t.mu.Lock()
	delete(t.inbound, conn)
	t.mu.Unlock()
	conn.Close()
}

// onHello handles the introduction: the loop has already checked the rank.
// On TCP it may carry the path of the peer's intra-host payload listener.
// No hello is counted, on either side: BytesIn and BytesOut count traffic.
func (s *stream) onHello(f frame, tail int) error {
	path := make([]byte, tail)
	if _, err := io.ReadFull(s.r, path); err != nil {
		return err
	}
	if !s.local && tail > 0 {
		s.t.peers[f.src].advertised(string(path))
	}
	return nil
}

// onPacket posts an eager message to the local engine, reading the payload
// into a recycled buffer that stays with the packet while it waits for its
// receive; the receive copies it out and gives both back (mpi.PacketPool). A
// packet whose payload never fully arrived is dropped, not recycled. The
// frame counts in once the engine has it, so a count a test reads is a
// message it can receive.
func (s *stream) onPacket(f frame, tail int) error {
	t := s.t
	p := t.pool.Get(tail)
	p.Ctx, p.Src, p.SrcWorld, p.Tag = f.ctx, f.rank, f.src, f.tag
	if _, err := io.ReadFull(s.r, p.Data); err != nil {
		return err
	}
	if t.env.Post(p) != nil {
		return errStreamDone
	}
	nc := t.netCounters()
	nc.FramesIn.Add(1)
	nc.BytesIn.Add(uint64(prefixLen + packetHdrLen + tail))
	return nil
}

// onCTS releases the rendezvous sender waiting on the id the CTS quotes; a
// replayed one misses the table and is ignored.
func (s *stream) onCTS(f frame, _ int) error {
	nc := s.t.netCounters()
	nc.FramesIn.Add(1)
	nc.CTSIn.Add(1)
	nc.BytesIn.Add(prefixLen + 8)
	s.t.releaseWaiter(f.id)
	return nil
}

// onRTS posts a placeholder that holds the sender's position in the match
// order. The CTS goes out when a receive consumes it: the engine queues it
// for ctsLoop. An RTS read once a failure sweep covering its sender has
// begun — the sender declared dead, the job aborted, the transport closing —
// is refused and ends the stream: the sweep could not reach its entry, and a
// receive that matched the placeholder would wait for a payload nobody
// sends. Each sweep records its cause before it takes waitMu.
func (s *stream) onRTS(f frame, _ int) error {
	t := s.t
	nc := t.netCounters()
	nc.FramesIn.Add(1)
	nc.RTSIn.Add(1)
	nc.BytesIn.Add(prefixLen + rtsHdrLen)
	key := rdvKey{src: f.src, id: f.id}
	t.waitMu.Lock()
	if _, dup := t.rdvIn[key]; dup {
		// A redial replayed an RTS whose first copy did arrive; the original
		// placeholder already holds the match slot.
		t.waitMu.Unlock()
		return nil
	}
	if t.isClosed() || t.abortErr.Load() != nil || t.peers[f.src].deadErr() != nil {
		t.waitMu.Unlock()
		return errStreamDone
	}
	p := t.pool.GetRendezvous(f.plen, f.id)
	p.Ctx, p.Src, p.SrcWorld, p.Tag = f.ctx, f.rank, f.src, f.tag
	t.rdvIn[key] = p
	p.Rdv.Hold() // the stream's, across the post: a failure sweep may drop the entry's at once
	t.waitMu.Unlock()
	err := t.env.Post(p)
	if err != nil {
		t.forgetRdv(key, p)
		p.Rdv.Fail(err)
	}
	p.Rdv.Release()
	if err != nil {
		return errStreamDone
	}
	return nil
}

// onRData completes a rendezvous: the payload is read straight into the
// buffer the application ends up with — the matched receive's own when it
// posted one (mpi.Comm.StartRecvInto), else one made here, exactly sized.
func (s *stream) onRData(f frame, tail int) error {
	t := s.t
	key := rdvKey{src: f.src, id: f.id}
	t.waitMu.Lock()
	p := t.rdvIn[key]
	if p != nil {
		p.Rdv.Hold() // the stream's, for the length of the read
	}
	t.waitMu.Unlock()
	wire := uint64(prefixLen + rdataHdrLen + tail)
	nc := t.netCounters()
	landed := false
	if p != nil {
		var err error
		landed, err = s.receivePayload(key, p, tail)
		p.Rdv.Release()
		if err != nil {
			return err
		}
	}
	if !landed {
		// Duplicate delivery after a redial replay, or a transfer the
		// failure sweep already gave up on: drain and discard, keeping the
		// stream usable.
		if err := drain(s.r, tail); err != nil {
			return err
		}
		nc.FramesIn.Add(1)
		nc.BytesIn.Add(wire)
		return nil
	}
	nc.FramesIn.Add(1)
	nc.RDataIn.Add(1)
	nc.BytesIn.Add(wire)
	if s.local {
		nc.ShmRDataIn.Add(1)
		nc.ShmBytesIn.Add(wire)
	}
	return nil
}

// receivePayload reads the tail bytes of an RData frame into placeholder p's
// final buffer, which the stream holds meanwhile, and once the payload has
// landed drops the transfer's table entry: a duplicate RData from a redialed
// connection then finds no entry, or a finished one, and is drained without
// touching the payload. It reports whether the payload landed. A read error
// leaves the entry: a sender-side retry may still complete it.
func (s *stream) receivePayload(key rdvKey, p *mpi.Packet, tail int) (bool, error) {
	t := s.t
	if tail != p.Rdv.PayloadLen() {
		err := fmt.Errorf("tcpnet: rendezvous %d/%d payload is %d bytes, rts promised %d", key.src, key.id, tail, p.Rdv.PayloadLen())
		t.forgetRdv(key, p)
		p.Rdv.Fail(err)
		return false, err
	}
	landed, err := p.ReceiveRendezvous(s.r)
	if landed && err == nil {
		t.forgetRdv(key, p)
	}
	return landed, err
}

// drain discards n bytes of r through a bounded buffer. (Not io.CopyN: its
// ReaderFrom/WriterTo probing links every such method in the binary — splice
// and sendfile included — into each component executable.)
func drain(r io.Reader, n int) error {
	buf := make([]byte, min(n, 32<<10))
	for n > 0 {
		c := min(n, len(buf))
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// onAbort applies a job-wide abort from a peer. The job is over, so the
// stream ends.
func (s *stream) onAbort(f frame, _ int) error {
	s.t.netCounters().BytesIn.Add(uint64(prefixLen + frameTable[kindAbort].fixed))
	s.t.abortDelivered(f.code, f.origin)
	return errStreamDone
}
