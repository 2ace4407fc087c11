package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"mph/internal/mpi/perf"
)

// Intra-host payload channel (DESIGN.md §12). Two ranks that mphrun placed on
// the same host still paid full TCP framing through loopback for every
// rendezvous payload. Following MPICH-G2's multi-protocol selection, the
// transport advertises a per-rank Unix-domain socket at hello time and moves
// kindRData frames — and only those — over it. RTS/CTS control, eager
// packets, acks, heartbeats, aborts, and the whole failure detector stay on
// the TCP stream, so ordering and failure semantics (§9/§12) are untouched:
// the control stream still serializes RTS before CTS before the payload
// becomes eligible, and a dead peer is still detected by TCP-side silence.
//
// Negotiation: every rank listens on a private Unix socket, and the hello
// frame that opens each of its outbound TCP connections to a same-host peer
// carries that socket's path. One directed contact therefore opens one
// connection and nobody dials from a readLoop. The sender of a rendezvous
// still knows the receiver's channel before its very first payload: the
// receiver cannot write a CTS without first dialling the sender, and its
// hello is the first frame on that stream. The sender dials the local socket
// lazily on first use and introduces itself with the usual (path-less) hello.
//
// Fallback: any local-channel failure — listen, dial, or write — degrades
// transparently to the TCP path (counted in ShmFallbacks), except under
// MPH_SHM=force, where a same-host fallback becomes a hard send error so
// tests can assert the channel actually carried the payload.

// errShmNoChannel reports a send to a same-host peer that never advertised a
// local channel; meaningful only under MPH_SHM=force.
var errShmNoChannel = errors.New("tcpnet: peer advertised no intra-host channel")

// errShmChannelDown reports a local channel previously marked unusable.
var errShmChannelDown = errors.New("tcpnet: intra-host channel marked down")

// maxShmPath bounds the socket path a hello frame may carry; sockaddr_un
// caps real ones around 104 bytes.
const maxShmPath = 512

// initShm creates this rank's local payload listener: a Unix-domain socket in
// a private temp directory (the socket name stays short — sockaddr_un caps
// the path around 104 bytes), advertised to same-host peers at hello time.
// Failure degrades to TCP with a warning unless MPH_SHM=force. No-op when
// the channel is off or the world has no one to share a host with.
func (t *Transport) initShm(size int) error {
	if t.cfg.shm == shmOff || size < 2 {
		return nil
	}
	dir, err := os.MkdirTemp("", "mph-shm-")
	if err == nil {
		t.shmDir = dir
		var ln net.Listener
		ln, err = net.Listen("unix", filepath.Join(dir, fmt.Sprintf("r%d.sock", t.rank)))
		if err == nil {
			t.shmLn = ln
			t.wg.Add(1)
			go t.acceptLoop(ln, true)
			return nil
		}
	}
	if t.cfg.shm == shmForce {
		return fmt.Errorf("tcpnet: %s=force: %w", EnvShm, err)
	}
	fmt.Fprintf(os.Stderr, "tcpnet: rank %d: intra-host channel disabled: %v\n", t.rank, err)
	return nil
}

// sameHost reports whether dst shares this rank's placement host. Unknown
// topology (no SetHosts yet) reports false: TCP is always correct.
func (t *Transport) sameHost(dst int) bool {
	h := t.env.HostOf(dst)
	return h != "" && h == t.env.HostOf(t.rank)
}

// shmPathFor returns the listener path this rank's hello to dst advertises:
// empty unless the channel is up and dst shares this rank's host.
func (t *Transport) shmPathFor(dst int) string {
	t.shmMu.Lock()
	ln := t.shmLn
	t.shmMu.Unlock()
	if ln == nil || !t.sameHost(dst) {
		return ""
	}
	return ln.Addr().String()
}

// shmAdvertised records the local payload listener a peer's hello carried;
// the dial happens lazily on the first rendezvous payload to that peer.
func (t *Transport) shmAdvertised(peer int, path string) {
	if t.cfg.shm == shmOff || peer < 0 || peer >= len(t.addrs) || peer == t.rank {
		return
	}
	t.shmMu.Lock()
	t.shmAddr[peer] = path
	delete(t.shmDead, peer) // a fresh advertisement resets a failed channel
	t.shmMu.Unlock()
}

// shmOutConn returns the established local payload connection for dst,
// dialing it on first use. (nil, nil) means the channel does not apply to
// this destination — disabled, or cross-host with nothing advertised.
// (nil, err) means it should apply but is unusable; the caller falls back to
// TCP, or fails the send under MPH_SHM=force.
func (t *Transport) shmOutConn(dst int) (*outConn, error) {
	if t.cfg.shm == shmOff {
		return nil, nil
	}
	t.shmMu.Lock()
	defer t.shmMu.Unlock()
	if oc := t.shmOut[dst]; oc != nil {
		return oc, nil
	}
	if t.shmDead[dst] {
		return nil, errShmChannelDown
	}
	path, ok := t.shmAddr[dst]
	if !ok {
		if t.cfg.shm == shmForce && t.sameHost(dst) {
			return nil, errShmNoChannel
		}
		return nil, nil
	}
	// A Unix-socket connect to a listening peer completes immediately;
	// holding shmMu across it keeps the dial/store race-free.
	conn, err := net.DialTimeout("unix", path, t.cfg.dialMax)
	if err == nil {
		conn.SetWriteDeadline(time.Now().Add(t.cfg.writeTimeout))
		if _, werr := conn.Write(helloFrame(t.rank, "")); werr != nil {
			conn.Close()
			err = werr
		} else {
			conn.SetWriteDeadline(time.Time{})
		}
	}
	if err != nil {
		// No retry budget here: TCP is the retry. The channel stays down
		// until the peer re-advertises it on a fresh hello.
		t.shmDead[dst] = true
		t.netCounters().ShmFallbacks.Add(1)
		if tr := t.tracer(); tr != nil {
			tr.Record(perf.KShmChannel, int64(dst), 0, 0, 0)
		}
		fmt.Fprintf(os.Stderr, "tcpnet: rank %d: intra-host channel to rank %d: %v (falling back to tcp)\n",
			t.rank, dst, err)
		return nil, err
	}
	oc := &outConn{conn: conn, lastWrite: time.Now()}
	t.shmOut[dst] = oc
	t.netCounters().ShmChannels.Add(1)
	if tr := t.tracer(); tr != nil {
		tr.Record(perf.KShmChannel, int64(dst), 1, 0, 0)
	}
	return oc, nil
}

// sendRData ships one rendezvous payload frame, preferring the intra-host
// channel when one is negotiated and falling back to the TCP sendv path on
// any local failure. It reports which channel carried the frame. Under
// MPH_SHM=force a same-host fallback is a hard error instead.
func (t *Transport) sendRData(dst int, hdr, payload []byte) (viaShm bool, err error) {
	oc, reason := t.shmOutConn(dst)
	if oc != nil {
		if act, fired := t.sendFault(dst, frameShm); fired && act.kind == "drop" {
			return true, nil // the frame vanishes; the send itself "succeeds"
		}
		// A "sever" fault above closed the connection; the write fails and
		// takes the fallback path like any real channel loss.
		werr := oc.writev(hdr, payload, t.cfg.writeTimeout)
		if werr == nil {
			return true, nil
		}
		t.dropShmConn(dst, oc)
		t.netCounters().ShmFallbacks.Add(1)
		reason = werr
	}
	if reason != nil && t.cfg.shm == shmForce {
		return false, fmt.Errorf("tcpnet: %s=force: intra-host channel to rank %d unusable: %w", EnvShm, dst, reason)
	}
	return false, t.sendv(dst, hdr, payload)
}

// dropShmConn removes a failed local payload connection; the next payload
// redials (the advertisement survives). No-op if already replaced.
func (t *Transport) dropShmConn(dst int, oc *outConn) {
	t.shmMu.Lock()
	if t.shmOut[dst] == oc {
		delete(t.shmOut, dst)
	}
	t.shmMu.Unlock()
	oc.conn.Close()
}

// severShm abruptly closes the established local payload connection to dst
// without marking the channel failed: the next payload redials or falls back.
// It implements the "sever" fault action for frame=shm.
func (t *Transport) severShm(dst int) {
	t.shmMu.Lock()
	oc := t.shmOut[dst]
	delete(t.shmOut, dst)
	t.shmMu.Unlock()
	if oc != nil {
		oc.conn.Close()
	}
}

// shmPeerDown discards the local-channel state for a dead rank: closing its
// connection unblocks any in-flight payload write (which then fails over to
// the TCP path and inherits its peer-lost verdict), and the dead mark stops
// future dials.
func (t *Transport) shmPeerDown(rank int) {
	t.shmMu.Lock()
	oc := t.shmOut[rank]
	delete(t.shmOut, rank)
	delete(t.shmAddr, rank)
	t.shmDead[rank] = true
	t.shmMu.Unlock()
	if oc != nil {
		oc.conn.Close()
	}
}

// closeShm tears down the local payload channel: the listener, every
// established outbound connection, and the socket directory. Inbound
// local connections live in t.inbound and are closed with the rest.
func (t *Transport) closeShm() {
	t.shmMu.Lock()
	ln := t.shmLn
	t.shmLn = nil
	conns := make([]net.Conn, 0, len(t.shmOut))
	for _, oc := range t.shmOut {
		conns = append(conns, oc.conn)
	}
	t.shmOut = make(map[int]*outConn)
	dir := t.shmDir
	t.shmDir = ""
	t.shmMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
}
