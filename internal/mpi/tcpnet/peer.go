package tcpnet

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/sock"
)

// peer is everything this rank knows about one other world rank: both
// outbound carriers, what its hello advertised, and whether it is dead.
// Transport.peers holds one per world rank, fixed at Init.
//
// A peer is unconnected until the first send dials it, connected while its
// TCP stream is up, and dead once the launcher says its session ended or a
// send to it spent its dial budget or failed its write twice (DESIGN.md §9).
// A lost stream alone is no verdict: a live peer redials. Dead is final:
// both carriers close and every later send fails fast.
type peer struct {
	t    *Transport
	rank int
	addr string // TCP listener, from the rendezvous address book

	mu       sync.Mutex
	tcp      *outConn      // established outbound TCP stream; nil until dialed and after a drop
	unix     *outConn      // established outbound intra-host payload stream (shm.go)
	unixPath string        // socket path the peer's last hello advertised; "" = none
	unixDown bool          // that path failed to dial; a fresh advertisement clears it
	dead     error         // the verdict's cause; nil while the peer is presumed alive
	down     chan struct{} // closed with the verdict: a send mid-dial gives up

	// Send totals. Unlike the in-process transport — where sent totals are
	// derived from sibling engines — a TCP sender cannot see the remote
	// engine, so it counts on its own wire path.
	sentMsgs, sentBytes atomic.Uint64
}

// outConn is one outbound stream on either carrier, with its writes
// serialized.
type outConn struct {
	mu   sync.Mutex
	conn *sock.Conn
	told bool // a hello on this stream carried the intra-host listener's path; set at open, then only by ctsLoop
}

// payload is what follows a rendezvous data frame's header: an outbound
// packet's bytes, or the pieces its fill writes into scratch. It holds the
// packet by value: a send keeps no pointer to its caller's.
type payload struct {
	p       mpi.Packet
	scratch []float64
}

// write sends one frame under the stream's write lock with a deadline: hdr
// and pl's bytes (pl is nil for most frames) as two iovecs of one writev, so
// a payload goes from the caller's slice to the socket with no intermediate
// copy. A fill's pieces go one writev each as the fill writes them, the
// first with hdr, the deadline renewed for each.
func (oc *outConn) write(hdr []byte, pl *payload, timeout time.Duration) error {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if pl == nil || pl.p.Fill == nil {
		var data []byte
		if pl != nil {
			data = pl.p.Data
		}
		return oc.writev(hdr, data, timeout)
	}
	for lo := 0; lo < pl.p.Floats; hdr = nil {
		piece := pl.p.FillPiece(pl.scratch, lo)
		if err := oc.writev(hdr, piece, timeout); err != nil {
			return err
		}
		lo += len(piece) / 8
	}
	return nil
}

// writev is one writev of hdr and data under a fresh deadline; the caller
// holds the write lock.
func (oc *outConn) writev(hdr, data []byte, timeout time.Duration) error {
	oc.conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := oc.conn.Writev(hdr, data); err != nil {
		return fmt.Errorf("tcpnet: write: %w", err)
	}
	return nil
}

// open wraps a freshly dialed connection and introduces this rank on it, so
// the peer's reader can attribute the stream before any traffic.
func (pr *peer) open(conn *sock.Conn, shmPath string) (*outConn, error) {
	oc := &outConn{conn: conn, told: shmPath != ""}
	if err := oc.write(helloFrame(pr.t.rank, shmPath), nil, pr.t.cfg.writeTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	return oc, nil
}

// errDropped is send's report that a "drop" fault swallowed the frame.
var errDropped = errors.New("tcpnet: frame dropped by fault injection")

// send is the one way a frame leaves for this peer. A rendezvous payload
// prefers the intra-host carrier when one is negotiated and falls back to
// TCP on any local failure; everything else goes on TCP, which
// transparently redials and resends once when the established stream fails
// mid-write. Retrying a whole frame is safe: the
// receiver discards partial frames on stream error, and a frame that was
// fully flushed onto a broken connection was already counted as delivered by
// TCP or lost with the peer. MPH_FAULT is consulted here, once per frame.
func (pr *peer) send(kind byte, hdr []byte, pl *payload) error {
	t := pr.t
	var uc *outConn
	if kind == kindRData {
		uc = pr.unixConn()
	}
	if t.faults != nil && pr.injectFault(kind, uc != nil) {
		return errDropped
	}
	if uc != nil {
		// A "sever" fault just closed uc; the write then fails and takes the
		// fallback like any real channel loss.
		if err := uc.write(hdr, pl, t.cfg.writeTimeout); err == nil {
			// Also counted in the caller's RDataOut/BytesOut: the shm
			// counters split the totals by carrier, they do not fork them.
			nc := t.netCounters()
			nc.ShmRDataOut.Add(1)
			nc.ShmBytesOut.Add(uint64(len(hdr) + pl.p.PayloadLen()))
			return nil
		}
		pr.drop(uc)
		t.netCounters().ShmFallbacks.Add(1)
	}
	for redialed := false; ; redialed = true {
		oc, err := pr.outbound() // a redial gets the full retry budget
		if err != nil {
			return err // outbound already declared the peer down
		}
		if err = oc.write(hdr, pl, t.cfg.writeTimeout); err == nil {
			return nil
		}
		pr.drop(oc)
		if redialed {
			t.peerDown(pr.rank, err, false)
			return &mpi.ErrPeerLost{Rank: pr.rank, Cause: err}
		}
	}
}

// outbound returns the TCP stream for sends to this peer, dialing with retry
// if there is none. A dial that exhausts its budget declares the peer dead;
// one the launcher's verdict overtakes returns that verdict.
func (pr *peer) outbound() (*outConn, error) {
	t := pr.t
	pr.mu.Lock()
	oc, dead := pr.tcp, pr.dead
	pr.mu.Unlock()
	switch {
	case t.isClosed():
		return nil, mpi.ErrClosed
	case dead != nil:
		return nil, &mpi.ErrPeerLost{Rank: pr.rank, Cause: dead}
	case oc != nil:
		return oc, nil
	}
	conn, err := dialRetry(pr.addr, t.cfg, t.stop, pr.down, func(attempt int, wait time.Duration) {
		t.netCounters().DialRetries.Add(1)
		if tr := t.tracer(); tr != nil {
			tr.Record(perf.KDialRetry, int64(pr.rank), int64(attempt), int64(wait), 0)
		}
	})
	if err == nil {
		// The hello tells a same-host peer this rank's intra-host listener,
		// if it is open, before any CTS written to this stream (shm.go).
		oc, err = pr.open(conn, t.shmPathFor(pr.rank))
	}
	if err != nil {
		if errors.Is(err, mpi.ErrClosed) {
			return nil, err
		}
		if dead := pr.deadErr(); dead != nil {
			return nil, dead // condemned mid-dial: the verdict is already out
		}
		t.peerDown(pr.rank, err, false)
		return nil, &mpi.ErrPeerLost{Rank: pr.rank, Cause: err}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	switch {
	case t.isClosed():
		conn.Close()
		return nil, mpi.ErrClosed
	case pr.dead != nil:
		conn.Close()
		return nil, &mpi.ErrPeerLost{Rank: pr.rank, Cause: pr.dead}
	case pr.tcp != nil: // lost a dial race; keep the first
		conn.Close()
		return pr.tcp, nil
	}
	pr.tcp = oc
	t.netCounters().Dials.Add(1)
	return oc, nil
}

// dialRetry dials addr until it succeeds or the cfg.dialTimeout budget is
// spent, backing off exponentially with jitter between attempts. onRetry
// (optional) observes each scheduled retry; closing stop (the transport's
// Close) or down (the peer's verdict) cancels the backoff wait — nil never
// does. It is a standalone function so the schedule is testable without a
// Transport.
func dialRetry(addr string, cfg netConfig, stop, down <-chan struct{}, onRetry func(attempt int, wait time.Duration)) (*sock.Conn, error) {
	bo := &backoff{base: cfg.dialBase, max: cfg.dialMax}
	deadline := time.Now().Add(cfg.dialTimeout)
	attempt := 0
	for {
		per := time.Until(deadline)
		if per <= 0 {
			return nil, fmt.Errorf("tcpnet: dial %s: budget exhausted after %d attempts", addr, attempt)
		}
		if cfg.dialMax > 0 && per > cfg.dialMax {
			per = cfg.dialMax
		}
		conn, err := sock.Dial("tcp", addr, per)
		if err == nil {
			return conn, nil
		}
		attempt++
		wait := bo.next()
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("tcpnet: dial %s: %w (after %d attempts)", addr, err, attempt)
		}
		if onRetry != nil {
			onRetry(attempt, wait)
		}
		select {
		case <-stop:
			return nil, mpi.ErrClosed
		case <-down:
			return nil, fmt.Errorf("tcpnet: dial %s: peer declared down (after %d attempts)", addr, attempt)
		case <-time.After(wait):
		}
	}
}

// established returns the peer's TCP stream if one is up, without dialing.
func (pr *peer) established() *outConn {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.tcp
}

// drop closes a failed outbound stream of either carrier and forgets it,
// leaving the redial to the next send; what the peer advertised survives.
// Forgetting is a no-op if the stream was already replaced.
func (pr *peer) drop(oc *outConn) {
	pr.mu.Lock()
	if pr.tcp == oc {
		pr.tcp = nil
	}
	if pr.unix == oc {
		pr.unix = nil
	}
	pr.mu.Unlock()
	oc.conn.Close()
}

// sever abruptly closes the established stream of one carrier without
// marking anything failed: the next send redials (or, for the intra-host
// carrier, falls back). It is the "sever" fault action.
func (pr *peer) sever(unix bool) {
	pr.mu.Lock()
	oc := pr.tcp
	if unix {
		oc = pr.unix
	}
	pr.mu.Unlock()
	if oc != nil {
		pr.drop(oc)
	}
}

// deadErr returns the typed failure for a send to this peer if it has been
// declared dead, or nil.
func (pr *peer) deadErr() error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.dead != nil {
		return &mpi.ErrPeerLost{Rank: pr.rank, Cause: pr.dead}
	}
	return nil
}

// condemn records the verdict, counts it as a loss when lost is set, wakes
// a send waiting to redial, and discards the peer's connection state,
// reporting false if it was already dead. The count comes before the wake,
// so a count read once that send returned includes the loss. Closing the
// intra-host stream fails any in-flight local payload write, whose TCP
// fallback then meets the verdict — a severed same-host neighbor yields
// ErrPeerLost, not a hang.
func (pr *peer) condemn(cause error, lost bool) bool {
	pr.mu.Lock()
	if pr.dead != nil {
		pr.mu.Unlock()
		return false
	}
	pr.dead = cause
	if lost {
		pr.t.netCounters().PeersLost.Add(1)
	}
	close(pr.down)
	tcp, unix := pr.tcp, pr.unix
	pr.tcp, pr.unix, pr.unixPath = nil, nil, ""
	pr.mu.Unlock()
	for _, oc := range []*outConn{tcp, unix} {
		if oc != nil {
			oc.conn.Close()
		}
	}
	return true
}

// peerDown is the one sweep for a dead world rank: its connection state is
// discarded, everything waiting on it fails with *mpi.ErrPeerLost, and the
// engine fails the receives only it could satisfy. A final verdict — the
// rank closed cleanly — ends there: a job's normal end is no loss to print,
// count or dump. Idempotent; a no-op for this rank, a rank outside the
// world, after Close and after an abort.
func (t *Transport) peerDown(rank int, cause error, final bool) {
	if rank < 0 || rank >= len(t.peers) || rank == t.rank || t.isClosed() || t.abortErr.Load() != nil ||
		!t.peers[rank].condemn(cause, !final) {
		return
	}
	t.failWaiters(func(r int) bool { return r == rank }, &mpi.ErrPeerLost{Rank: rank, Cause: cause})
	if final {
		t.env.PeerExited(rank, cause)
		return
	}
	t.env.PeerLost(rank, cause)
	fmt.Fprintf(os.Stderr, "tcpnet: rank %d: peer rank %d lost: %v\n", t.rank, rank, cause)
	// Push the failure counters to the launcher right away — the survivors
	// may run on for a while, and the post-mortem wants the loss timestamped.
	go t.report(false)
}
