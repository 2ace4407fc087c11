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
// rendezvous payload. Following MPICH-G2's multi-protocol selection — a
// second protocol for a pair only where the pair uses it — the transport
// advertises a per-rank Unix-domain socket in a hello and moves
// kindRData frames — and only those — over it. RTS/CTS control, eager
// packets and aborts stay on the TCP stream, so ordering and failure
// semantics (§9/§12) are untouched: the control stream still serializes RTS
// before CTS before the payload becomes eligible, and a dead peer is still
// declared by the launcher. Close lingers on this carrier as on TCP.
// The socket is the second carrier under the same peer object (peer.go):
// peer.send picks it for a payload, and the peer's one drop/sever/condemn
// path closes it.
//
// Negotiation: a rank opens its private Unix socket only when it first
// writes a CTS to a same-host peer — the first moment any peer could use
// it — so a job that never takes a same-host rendezvous pays nothing for
// the channel. ctsLoop, the one CTS writer, opens it, and tells each
// same-host peer its path with a hello on the TCP stream just before the
// CTS: the hello that opens a stream dialled after the listener exists
// carries the path, and a stream opened before it gets a second hello. The
// sender of a rendezvous therefore reads the receiver's path before the CTS
// that releases its payload, on the same stream, and nobody dials from a
// readLoop. The sender dials the local socket lazily on first use and
// introduces itself with the usual (path-less) hello.
//
// Fallback: any local-channel failure — listen, dial, or write — degrades
// transparently to the TCP path, counted in ShmFallbacks; a listener that
// could not be made is not tried again. The ShmRDataOut and ShmBytesOut
// counters show what the channel did carry.

// openShm returns the path of this rank's local payload listener, making it
// on the first call: a Unix-domain socket in a private temp directory (the
// socket name stays short — sockaddr_un caps the path around 104 bytes).
// It returns "" once the listener could not be made, or when the transport
// is closing or severed. Only ctsLoop calls it.
func (t *Transport) openShm() string {
	if ln := t.shmLn.Load(); ln != nil {
		return ln.Addr()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shmTried || t.isClosed() {
		return ""
	}
	t.shmTried = true
	dir, err := os.MkdirTemp("", "mph-shm-")
	if err == nil {
		var ln *sock.Listener
		if ln, err = sock.Listen("unix", filepath.Join(dir, fmt.Sprintf("r%d.sock", t.rank))); err == nil {
			t.shmDir = dir
			t.shmLn.Store(ln)
			t.wg.Add(1)
			go t.acceptLoop(ln, true)
			return ln.Addr()
		}
		os.RemoveAll(dir)
	}
	t.netCounters().ShmFallbacks.Add(1)
	fmt.Fprintf(os.Stderr, "tcpnet: rank %d: intra-host channel disabled: %v\n", t.rank, err)
	return ""
}

// closeShm closes the local payload listener and removes its socket
// directory, if they were made, and keeps openShm from making them later;
// harmless to repeat. Connections are the peers' and the readers'.
func (t *Transport) closeShm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shmTried = true
	if ln := t.shmLn.Load(); ln != nil {
		ln.Close()
		os.RemoveAll(t.shmDir)
	}
}

// advertiseShm readies pr, a same-host peer, for the CTS about to be written
// to it: it opens the local listener if need be and, when the TCP stream the
// CTS will take did not open with the listener's path, writes a hello
// carrying it on that stream first. Once per stream.
func (t *Transport) advertiseShm(pr *peer) {
	path := t.openShm()
	if path == "" {
		return
	}
	oc, err := pr.outbound()
	if err != nil || oc.told {
		return // a failed dial fails the CTS's own send too
	}
	oc.told = true
	// A failed write fails the CTS's write as well, and the redial's opening
	// hello carries the path.
	oc.write(helloFrame(t.rank, path), nil, t.cfg.writeTimeout) //nolint:errcheck
}

// sameHost reports whether dst shares this rank's placement host. Unknown
// topology (no SetHosts yet) reports false: TCP is always correct.
func (t *Transport) sameHost(dst int) bool {
	h := t.env.HostOf(dst)
	return h != "" && h == t.env.HostOf(t.rank)
}

// shmPathFor returns the listener path this rank's hello to dst advertises:
// empty unless the listener is open and dst shares this rank's host.
func (t *Transport) shmPathFor(dst int) string {
	ln := t.shmLn.Load()
	if ln == nil || !t.sameHost(dst) {
		return ""
	}
	return ln.Addr()
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
