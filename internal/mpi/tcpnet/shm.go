package tcpnet

import (
	"fmt"
	"os"
	"path/filepath"

	"mph/internal/mpi/perf"
	"mph/internal/sock"
)

// Intra-host payload channel (DESIGN.md §12). Two ranks that mphrun placed on
// the same host still paid full TCP framing through loopback for every
// rendezvous payload. Following MPICH-G2's multi-protocol selection, the
// transport advertises a per-rank Unix-domain socket at hello time and moves
// kindRData frames — and only those — over it. RTS/CTS control, eager
// packets and aborts stay on the TCP stream, so ordering and failure
// semantics (§9/§12) are untouched: the control stream still serializes RTS
// before CTS before the payload becomes eligible, and a dead peer is still
// declared by the launcher. Close lingers on this carrier as on TCP.
// The socket is the second carrier under the same peer object (peer.go):
// peer.send picks it for a payload, and the peer's one drop/sever/condemn
// path closes it.
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
// transparently to the TCP path, counted in ShmFallbacks; the ShmRDataOut
// and ShmBytesOut counters show what the channel did carry.

// initShm creates this rank's local payload listener: a Unix-domain socket in
// a private temp directory (the socket name stays short — sockaddr_un caps
// the path around 104 bytes), advertised to same-host peers at hello time.
// Failure degrades to TCP with a warning. No-op when the world has no one
// to share a host with.
func (t *Transport) initShm(size int) {
	if size < 2 {
		return
	}
	dir, err := os.MkdirTemp("", "mph-shm-")
	if err == nil {
		t.shmDir = dir
		var ln *sock.Listener
		ln, err = sock.Listen("unix", filepath.Join(dir, fmt.Sprintf("r%d.sock", t.rank)))
		if err == nil {
			t.shmLn = ln
			t.wg.Add(1)
			go t.acceptLoop(ln, true)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "tcpnet: rank %d: intra-host channel disabled: %v\n", t.rank, err)
}

// closeShm closes the local payload listener and removes its socket
// directory; harmless to repeat. Connections are the peers' and the readers'.
func (t *Transport) closeShm() {
	if t.shmLn != nil {
		t.shmLn.Close()
	}
	os.RemoveAll(t.shmDir)
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
	if t.shmLn == nil || !t.sameHost(dst) {
		return ""
	}
	return t.shmLn.Addr()
}

// advertised records the local payload listener the peer's hello carried;
// the dial happens lazily on the first rendezvous payload to it.
func (pr *peer) advertised(path string) {
	if pr.rank == pr.t.rank {
		return
	}
	pr.mu.Lock()
	pr.unixPath, pr.unixDown = path, false // a fresh advertisement resets a failed channel
	pr.mu.Unlock()
}

// unixConn returns the established local payload stream to the peer, dialing
// it on first use, or nil when the payload goes on TCP: nothing advertised,
// or the channel is unusable.
func (pr *peer) unixConn() *outConn {
	t := pr.t
	pr.mu.Lock()
	defer pr.mu.Unlock()
	switch {
	case pr.unix != nil:
		return pr.unix
	case pr.unixDown, pr.unixPath == "":
		return nil
	}
	// A Unix-socket connect to a listening peer completes immediately;
	// holding the peer's lock across it keeps the dial/store race-free.
	var oc *outConn
	conn, err := sock.Dial("unix", pr.unixPath, t.cfg.dialMax)
	if err == nil {
		oc, err = pr.open(conn, "")
	}
	if err != nil {
		// No retry budget here: TCP is the retry. The channel stays down
		// until the peer re-advertises it on a fresh hello.
		pr.unixDown = true
		t.netCounters().ShmFallbacks.Add(1)
		if tr := t.tracer(); tr != nil {
			tr.Record(perf.KShmChannel, int64(pr.rank), 0, 0, 0)
		}
		fmt.Fprintf(os.Stderr, "tcpnet: rank %d: intra-host channel to rank %d: %v (falling back to tcp)\n",
			t.rank, pr.rank, err)
		return nil
	}
	pr.unix = oc
	t.netCounters().ShmChannels.Add(1)
	if tr := t.tracer(); tr != nil {
		tr.Record(perf.KShmChannel, int64(pr.rank), 1, 0, 0)
	}
	return oc
}
