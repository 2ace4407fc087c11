// Package tcpnet is the multi-process transport for the mpi substrate:
// each executable of an MPMD job is a real OS process, ranks exchange
// packets over per-direction TCP streams, and the initial wiring happens
// through the mphrun rendezvous (package bootstrap).
//
// Each sender owns one outbound connection per peer and writes its packets
// to it in program order; TCP's ordered delivery plus the engine's
// first-match scan yield the same non-overtaking guarantee as the
// in-process transport. Synchronous sends (Ssend) are acknowledged with a
// small control frame sent back when the receiver matches the packet.
//
// # Eager/rendezvous protocol
//
// Payloads below MPH_EAGER_THRESHOLD (default 64 KiB) are sent eagerly:
// copied into a pooled frame and written in one shot, completing before the
// receiver has matched. Payloads at or above the threshold use a rendezvous
// (DESIGN.md §12): the sender writes a small RTS frame carrying only the
// envelope and promised length, the receiver posts a placeholder packet that
// holds the sender's position in the match order, and once a receive
// consumes the placeholder the receiver answers with CTS. The sender then
// writes the payload with scatter-gather I/O (net.Buffers, writev) straight
// from the caller's slice — no intermediate copy on either side: the
// receiver reads the payload into its final exactly-sized buffer. A
// rendezvous send therefore blocks until the receiver has matched, giving
// Send Ssend-like synchronous semantics above the threshold (permitted by
// the MPI standard, which lets any send block until the matching receive).
//
// # Fault tolerance
//
// The transport assumes peers can die at any point and turns every such
// death into a typed error instead of a hang:
//
//   - Outbound connections are established with bounded
//     exponential-backoff-plus-jitter dial retry (MPH_DIAL_TIMEOUT /
//     MPH_DIAL_BACKOFF / MPH_DIAL_BACKOFF_MAX) and every frame write
//     carries a deadline (MPH_WRITE_TIMEOUT). A write failure triggers one
//     transparent redial-and-resend before the peer is given up on.
//   - Every new outbound connection introduces itself with a hello frame,
//     and idle connections are kept warm with heartbeats (MPH_HEARTBEAT),
//     so the receive side can attribute silence: an inbound stream quiet
//     for longer than MPH_PEER_TIMEOUT means the peer is hung or
//     partitioned, and a lost inbound stream that is not re-established
//     within the same window means the peer is dead.
//   - When the failure detector declares a world rank dead, pending
//     synchronous sends to it fail, the engine fails receives that only it
//     could satisfy (mpi.ErrPeerLost), and future sends to it fail fast.
//   - Abort frames propagate mpi.Comm.Abort (and the launcher's abort on
//     child failure) to every rank, failing all pending operations with
//     mpi.ErrAborted.
//
// MPH_FAULT injects deterministic faults for chaos testing; see
// ParseFaultSpec. All failure traffic is counted in perf.NetCounters and
// recorded by the event tracer (dial-retry, peer-lost, abort events).
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
)

// frame kinds.
const (
	kindPacket    = 1 // a message: header + payload
	kindAck       = 2 // Ssend release: u64 ack id
	kindHello     = 3 // first frame on every outbound conn: u64 sender world rank [+ its intra-host socket path]
	kindHeartbeat = 4 // idle-connection liveness signal, empty body
	kindAbort     = 5 // job-wide abort (= bootstrap.AbortFrameKind): i64 code + i64 origin rank (-1 launcher)
	kindRTS       = 6 // rendezvous request-to-send: envelope + promised length
	kindCTS       = 7 // rendezvous clear-to-send: u64 rendezvous id
	kindRData     = 8 // rendezvous payload: u64 srcWorld + u64 id + payload
)

// packetHdrLen is the fixed packet-frame header after the length prefix and
// kind byte: srcWorld, ctx, src, tag, ackID (u64/i64 each).
const packetHdrLen = 8 + 8 + 8 + 8 + 8

// rtsHdrLen is the fixed body of a kindRTS frame: srcWorld, ctx, src, tag,
// rendezvous id, promised payload length (u64/i64 each). An RTS frame has no
// payload — that is its entire point.
const rtsHdrLen = 8 + 8 + 8 + 8 + 8 + 8

// rdataHdrLen is the fixed header of a kindRData frame before the payload:
// srcWorld and rendezvous id. srcWorld is carried so the frame decodes
// standalone (and so a redialed stream needs no prior context).
const rdataHdrLen = 8 + 8

// rdvChunk is the read granularity for rendezvous payloads: each chunk read
// refreshes the peer-silence deadline, so a slow multi-megabyte transfer is
// judged by per-chunk progress, not whole-payload time.
const rdvChunk = 256 << 10

// maxFrame bounds a frame's byte length as a corruption guard.
const maxFrame = 1 << 30

// abortSendTimeout bounds the per-peer effort of an abort broadcast: aborts
// must go out promptly even when some peers are already unreachable.
const abortSendTimeout = time.Second

// frameBuf is a pooled outbound frame buffer. A frame is dead the moment its
// blocking write returns, so Deliver recycles it for the next send instead
// of allocating header+payload garbage per packet. The wrapper keeps the
// slice header off the heap on pool round trips.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// putFrame recycles a frame buffer, dropping (not pooling) one that grew
// beyond maxCap — the transport's resolved netConfig.maxPooledFrame — so a
// single large send cannot pin payload-sized memory for the life of the
// process. The cap tracks the configured eager threshold (it used to be
// pinned to the default, which made every eager frame of a job that raised
// MPH_EAGER_THRESHOLD above 64 KiB miss the pool and allocate per send),
// bounded by maxPooledFrameCeiling; rendezvous-disabled jobs can still push
// arbitrarily large eager frames, and those are dropped here.
func putFrame(fb *frameBuf, maxCap int) {
	if cap(fb.b) > maxCap {
		fb.b = nil
	}
	framePool.Put(fb)
}

// DialTimeout is the default total budget for rendezvous registration and
// for establishing one peer connection including all retries; MPH_DIAL_TIMEOUT
// overrides it.
const DialTimeout = 30 * time.Second

// osExit is swapped out by tests of the "die" fault action.
var osExit = os.Exit

// pendingAck is one registered synchronous send awaiting its ack frame (or
// a rendezvous send awaiting its CTS frame).
type pendingAck struct {
	ch  chan error
	dst int
}

// rdvKey identifies one inbound rendezvous transfer: ids are allocated
// per-sender, so the sender's world rank qualifies them globally.
type rdvKey struct {
	src int
	id  uint64
}

// Transport implements mpi.Transport over TCP.
type Transport struct {
	rank  int
	addrs []string
	env   *mpi.Env
	ln    net.Listener
	cfg   netConfig

	faults *faultSet // parsed MPH_FAULT rules, nil when no faults are injected

	mu      sync.Mutex
	out     map[int]*outConn
	inbound []net.Conn
	dead    map[int]error       // world rank -> cause, per failure-detector verdict
	suspect map[int]*time.Timer // pending peer-death suspicions, cancelable by reconnect
	closed  bool

	stop chan struct{} // closed by Close; cancels dial backoff and heartbeats

	abortErr atomic.Pointer[mpi.AbortError] // set once the job is aborting

	ackSeq  atomic.Uint64
	ackMu   sync.Mutex
	pending map[uint64]pendingAck
	// rdvOut holds this rank's rendezvous sends between RTS and CTS, keyed
	// by rendezvous id and guarded by ackMu (the same failure sweeps that
	// release pending Ssend acks release CTS waiters). The channel closes on
	// CTS (nil) or carries the typed failure.
	rdvOut map[uint64]pendingAck

	// rdvSeq numbers this rank's outbound rendezvous transfers; ids are
	// per-sender, so (srcWorld, id) is globally unique.
	rdvSeq atomic.Uint64

	// rdvIn holds inbound rendezvous placeholders between RTS and the full
	// payload landing, keyed by (sender world rank, id). An entry is removed
	// only after its payload is completely read — a duplicate RData from a
	// redialed connection then misses the map and is drained harmlessly.
	rdvMu sync.Mutex
	rdvIn map[rdvKey]*mpi.Packet

	// Intra-host payload channel state (shm.go, DESIGN.md §12): per-peer
	// Unix-domain sockets advertised in the hello frame that carry rendezvous
	// payload frames between same-host ranks. Guarded by its own mutex —
	// the payload hot path must not contend with connection bookkeeping.
	shmMu   sync.Mutex
	shmDir  string           // private socket directory, removed on Close
	shmLn   net.Listener     // this rank's local payload listener, nil when disabled
	shmAddr map[int]string   // peer world rank -> advertised socket path
	shmOut  map[int]*outConn // established outbound local payload connections
	shmDead map[int]bool     // peers whose local channel failed permanently

	// Per-destination send totals, indexed by world rank. Unlike the
	// in-process transport — where sent totals are derived from sibling
	// engines — a TCP sender cannot see the remote engine, so it counts on
	// its own wire path with atomics (the syscall dominates the cost).
	sentMsgs  []atomic.Uint64
	sentBytes []atomic.Uint64

	// net points at the rank's perf counters once the Env exists; frames
	// read before then (none in practice: peers dial after rendezvous)
	// fall back to a throwaway counter block.
	net atomic.Pointer[perf.NetCounters]

	debugSrv *perf.DebugServer // MPH_DEBUG_ADDR endpoint, nil unless enabled

	// tele is the launcher's telemetry channel (MPH_TELEMETRY), nil unless
	// the launcher registered one. teleFinalOnce guards the final report:
	// exactly one of Close, abort, or peer-loss sends it.
	tele          *bootstrap.TelemetryClient
	teleFinalOnce sync.Once

	wg sync.WaitGroup
}

// netCounters returns the live counter block, or a discard block before the
// environment is wired.
func (t *Transport) netCounters() *perf.NetCounters {
	if nc := t.net.Load(); nc != nil {
		return nc
	}
	return &perf.NetCounters{}
}

// tracer returns the rank's event tracer, or nil when tracing is off or the
// environment is not wired yet.
func (t *Transport) tracer() *perf.Tracer {
	if t.env == nil {
		return nil
	}
	return t.env.Perf().Tracer()
}

// outConn serializes writes to one peer and tracks when the connection was
// last written, which is what the heartbeat loop consults.
type outConn struct {
	mu        sync.Mutex
	conn      net.Conn
	lastWrite time.Time
}

// write sends one frame under the connection's write lock with a deadline.
func (oc *outConn) write(frame []byte, timeout time.Duration) error {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if timeout > 0 {
		oc.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err := oc.conn.Write(frame)
	oc.lastWrite = time.Now()
	if err != nil {
		return fmt.Errorf("tcpnet: write: %w", err)
	}
	return nil
}

// writev sends one frame split across two iovecs — header and payload —
// under the connection's write lock with a deadline. net.Buffers on a TCP
// connection reaches the kernel as a single writev call, so the payload is
// never copied into an intermediate frame buffer.
func (oc *outConn) writev(hdr, payload []byte, timeout time.Duration) error {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if timeout > 0 {
		oc.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(oc.conn)
	oc.lastWrite = time.Now()
	if err != nil {
		return fmt.Errorf("tcpnet: writev: %w", err)
	}
	return nil
}

// idleFor reports whether the connection has gone unwritten for at least d.
func (oc *outConn) idleFor(d time.Duration) bool {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return time.Since(oc.lastWrite) >= d
}

// Init bootstraps a TCP world endpoint: listen, register with the
// rendezvous, and return the environment whose world communicator spans the
// job. Every process of the job must call it (workers do so via
// InitFromEnv).
func Init(rank, size int, rendezvous string) (*mpi.Env, error) {
	_, env, err := initTransport(rank, size, rendezvous)
	return env, err
}

// initTransport is Init returning the transport too; the chaos tests use
// the handle to sever a live rank's network abruptly.
func initTransport(rank, size int, rendezvous string) (*Transport, *mpi.Env, error) {
	if rank < 0 || rank >= size {
		return nil, nil, fmt.Errorf("tcpnet: rank %d out of world of %d", rank, size)
	}
	cfg := configFromEnv()
	faults, err := ParseFaultSpec(os.Getenv(EnvFault))
	if err != nil {
		return nil, nil, err
	}
	// Bind where the launcher said to (MPH_BIND; loopback by default) and
	// advertise an address peers on other hosts can dial: the wildcard bind
	// advertises the routable interface address, not 0.0.0.0.
	bind := os.Getenv(bootstrap.EnvBind)
	ln, err := net.Listen("tcp", bootstrap.ListenAddr(bind))
	if err != nil {
		return nil, nil, fmt.Errorf("tcpnet: listen: %w", err)
	}
	host := os.Getenv(bootstrap.EnvHost)
	if host == "" {
		if host, err = os.Hostname(); err != nil || host == "" {
			host = "localhost"
		}
	}
	self := bootstrap.Endpoint{Addr: bootstrap.AdvertiseAddr(bind, ln.Addr()), Host: host}
	book, err := bootstrap.RegisterEndpoint(rendezvous, rank, self, cfg.dialTimeout)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	if len(book) != size {
		ln.Close()
		return nil, nil, fmt.Errorf("tcpnet: address book has %d entries, world is %d", len(book), size)
	}
	addrs := make([]string, size)
	hosts := make([]string, size)
	for r, ep := range book {
		addrs[r] = ep.Addr
		hosts[r] = ep.Host
	}
	t := &Transport{
		rank:      rank,
		addrs:     addrs,
		ln:        ln,
		cfg:       cfg,
		faults:    faults,
		out:       make(map[int]*outConn),
		dead:      make(map[int]error),
		suspect:   make(map[int]*time.Timer),
		stop:      make(chan struct{}),
		pending:   make(map[uint64]pendingAck),
		rdvOut:    make(map[uint64]pendingAck),
		rdvIn:     make(map[rdvKey]*mpi.Packet),
		shmAddr:   make(map[int]string),
		shmOut:    make(map[int]*outConn),
		shmDead:   make(map[int]bool),
		sentMsgs:  make([]atomic.Uint64, size),
		sentBytes: make([]atomic.Uint64, size),
	}
	env := mpi.NewEnv(rank, size, t)
	env.SetHosts(hosts)
	t.env = env
	pv := env.Perf()
	t.net.Store(&pv.Net)
	pv.SetSentCollector(func() (msgs, bytes []uint64) {
		msgs = make([]uint64, size)
		bytes = make([]uint64, size)
		for d := range msgs {
			msgs[d] = t.sentMsgs[d].Load()
			bytes[d] = t.sentBytes[d].Load()
		}
		return msgs, bytes
	})
	pv.SetHost(host)
	if base := os.Getenv(perf.EnvDebugAddr); base != "" {
		srv, err := perf.Serve(base, rank, pv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcpnet: rank %d: debug endpoint: %v\n", rank, err)
		} else {
			t.debugSrv = srv
			fmt.Fprintf(os.Stderr, "tcpnet: rank %d: perf debug endpoint at http://%s/perf\n", rank, srv.Addr())
		}
	}
	if teleAddr := os.Getenv(bootstrap.EnvTelemetry); teleAddr != "" {
		tele, err := bootstrap.DialTelemetry(teleAddr, rank, host, os.Getpid(), cfg.dialTimeout)
		if err != nil {
			// Telemetry is best-effort diagnostics; the job runs without it.
			fmt.Fprintf(os.Stderr, "tcpnet: rank %d: telemetry: %v\n", rank, err)
		} else {
			t.tele = tele
			if off, bound, ok := tele.ClockOffset(); ok {
				pv.SetClockOffset(off, bound)
			}
			if cfg.statsInterval > 0 {
				t.wg.Add(1)
				go t.telemetryLoop(cfg.statsInterval)
			}
		}
	}
	if err := t.initShm(size); err != nil {
		ln.Close()
		return nil, nil, err
	}
	t.wg.Add(2)
	go t.acceptLoop(t.ln, false)
	go t.heartbeatLoop()
	return t, env, nil
}

// telemetryLoop pushes a live snapshot to the launcher every interval until
// the transport closes; the final report is teleFinal's job.
func (t *Transport) telemetryLoop(interval time.Duration) {
	defer t.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		if err := t.tele.Report(t.env.Perf().Snapshot(), false); err != nil {
			return // launcher gone; the final report will be a no-op too
		}
	}
}

// teleReport pushes one non-final snapshot (used by event-driven updates
// like a peer-loss verdict, so the launcher sees the failure counters
// without waiting out the reporting interval).
func (t *Transport) teleReport() {
	if t.tele == nil {
		return
	}
	t.tele.Report(t.env.Perf().Snapshot(), false) //nolint:errcheck // best-effort diagnostics
}

// teleFinal pushes the rank's final snapshot over the telemetry channel and
// hangs up, exactly once. Clean Close and job abort both funnel through it
// so a crashed job still delivers its post-mortem counters.
func (t *Transport) teleFinal() {
	if t.tele == nil {
		return
	}
	t.teleFinalOnce.Do(func() {
		t.tele.Report(t.env.Perf().Snapshot(), true) //nolint:errcheck // best-effort diagnostics
		t.tele.Close()
	})
}

// InitFromEnv bootstraps from the mphrun environment variables and also
// returns the registration file path the launcher forwarded.
func InitFromEnv() (*mpi.Env, string, error) {
	le, err := bootstrap.EnvFromOS()
	if err != nil {
		return nil, "", err
	}
	env, err := Init(le.Rank, le.Size, le.Rendezvous)
	return env, le.Registration, err
}

// Deliver implements mpi.Transport. Sends to a rank the failure detector
// has declared dead fail fast with *mpi.ErrPeerLost; sends after an abort
// fail with the abort error.
func (t *Transport) Deliver(dst int, p *mpi.Packet) error {
	if dst < 0 || dst >= len(t.addrs) {
		return mpi.ErrRank
	}
	if ae := t.abortErr.Load(); ae != nil {
		return ae
	}
	if dst == t.rank {
		// Local fast path; the engine takes ownership of the packet.
		t.sentMsgs[dst].Add(1)
		t.sentBytes[dst].Add(uint64(len(p.Data)))
		return t.env.Post(p)
	}
	if err := t.deadErr(dst); err != nil {
		return err
	}
	if t.rendezvousEligible(len(p.Data)) {
		return t.deliverRendezvous(dst, p)
	}
	if act, fired := t.sendFault(dst, framePacket); fired && act.kind == "drop" {
		return nil // the frame vanishes; the send itself "succeeds"
	}
	t.sentMsgs[dst].Add(1)
	t.sentBytes[dst].Add(uint64(len(p.Data)))
	var ackID uint64
	if p.Ack != nil {
		ackID = t.ackSeq.Add(1)
		t.ackMu.Lock()
		t.pending[ackID] = pendingAck{ch: p.Ack, dst: dst}
		t.ackMu.Unlock()
	}
	fb := framePool.Get().(*frameBuf)
	fb.b = encodePacketInto(fb.b, t.rank, p, ackID)
	err := t.send(dst, fb.b)
	if err == nil {
		nc := t.netCounters()
		nc.FramesOut.Add(1)
		nc.BytesOut.Add(uint64(len(fb.b)))
	}
	putFrame(fb, t.cfg.maxPooledFrame)
	if err != nil && ackID != 0 {
		// The packet never left, so no ack will come back; drop the
		// registration rather than stranding it until Close.
		t.ackMu.Lock()
		delete(t.pending, ackID)
		t.ackMu.Unlock()
	}
	return err
}

// send writes one frame to dst, transparently redialing and resending once
// when the established connection fails mid-write. Retrying a whole frame is
// safe: the receiver discards partial frames on stream error, and a frame
// that was fully flushed onto a broken connection was already counted as
// delivered by TCP or lost with the peer.
func (t *Transport) send(dst int, frame []byte) error {
	oc, err := t.outbound(dst)
	if err != nil {
		return err
	}
	err = oc.write(frame, t.cfg.writeTimeout)
	if err == nil {
		return nil
	}
	t.dropOut(dst, oc)
	oc, err2 := t.outbound(dst) // full retry budget for the redial
	if err2 != nil {
		return err2 // outbound already declared the peer down
	}
	if err3 := oc.write(frame, t.cfg.writeTimeout); err3 != nil {
		t.dropOut(dst, oc)
		t.peerDown(dst, err3)
		return &mpi.ErrPeerLost{Rank: dst, Cause: err3}
	}
	return nil
}

// sendFault consults the fault rules for one outbound frame of the given
// kind and applies the side-effectful actions (delay, sever, die) inline.
// It reports the chosen action and whether any rule fired; the caller
// implements "drop" itself, because what a vanished frame means differs per
// frame kind.
func (t *Transport) sendFault(dst int, frame string) (faultAction, bool) {
	if t.faults == nil {
		return faultAction{}, false
	}
	act := t.faults.sendAction(t.rank, dst, frame)
	if act.kind == "" {
		return faultAction{}, false
	}
	t.netCounters().FaultsInjected.Add(1)
	switch act.kind {
	case "delay":
		time.Sleep(act.dur)
	case "sever":
		// A shm-frame sever hits the intra-host channel, not the TCP stream:
		// the point of frame=shm chaos is proving the fallback path.
		if frame == frameShm {
			t.severShm(dst)
		} else {
			t.severPeer(dst)
		}
	case "die":
		t.severAll()
		osExit(1)
	}
	return act, true
}

// rendezvousEligible reports whether a payload of n bytes takes the
// rendezvous path: at or above the configured threshold, non-empty, and
// rendezvous not disabled (negative threshold).
func (t *Transport) rendezvousEligible(n int) bool {
	return t.cfg.eagerThreshold >= 0 && n > 0 && n >= t.cfg.eagerThreshold
}

// BorrowsPayload implements the mpi payload-borrower capability: a
// rendezvous-eligible send to a remote peer writes the payload straight from
// the caller's slice (writev) and returns only after the bytes are handed to
// the kernel, so the mpi send layer skips its defensive copy. Self-sends
// hand the slice to the local engine and must still be copied.
func (t *Transport) BorrowsPayload(dst, n int) bool {
	return dst != t.rank && t.rendezvousEligible(n)
}

// deliverRendezvous sends one payload with the rendezvous protocol: RTS with
// the envelope, block until the receiver's CTS proves the consuming match,
// then the payload as a header iovec plus the caller's slice (writev) — over
// the intra-host channel when one is negotiated (shm.go), else TCP. The
// CTS wait is released with a typed error by the failure sweeps when the
// peer dies, the job aborts, or the transport closes — a rendezvous send
// never hangs on a dead receiver.
func (t *Transport) deliverRendezvous(dst int, p *mpi.Packet) error {
	if act, fired := t.sendFault(dst, frameRTS); fired && act.kind == "drop" {
		return nil // the announcement vanishes; chaos semantics as for packet drop
	}
	t.sentMsgs[dst].Add(1)
	t.sentBytes[dst].Add(uint64(len(p.Data)))
	id := t.rdvSeq.Add(1)
	ch := make(chan error, 1)
	t.ackMu.Lock()
	t.rdvOut[id] = pendingAck{ch: ch, dst: dst}
	t.ackMu.Unlock()
	var rts [5 + rtsHdrLen]byte
	encodeRTSInto(rts[:], t.rank, p, id)
	if err := t.send(dst, rts[:]); err != nil {
		t.ackMu.Lock()
		delete(t.rdvOut, id)
		t.ackMu.Unlock()
		return err
	}
	nc := t.netCounters()
	nc.FramesOut.Add(1)
	nc.RTSOut.Add(1)
	nc.BytesOut.Add(5 + rtsHdrLen)
	if tr := t.tracer(); tr != nil {
		tr.Record(perf.KRendezvous, int64(dst), int64(p.Tag), int64(len(p.Data)), int64(id))
	}
	if err := <-ch; err != nil {
		return err
	}
	// CTS received: the receiver has matched. Ship the payload.
	if act, fired := t.sendFault(dst, frameData); fired && act.kind == "drop" {
		return nil
	}
	var hdr [5 + rdataHdrLen]byte
	encodeRDataHeader(hdr[:], t.rank, id, len(p.Data))
	viaShm, err := t.sendRData(dst, hdr[:], p.Data)
	if err != nil {
		return err
	}
	nc.FramesOut.Add(1)
	nc.RDataOut.Add(1)
	nc.BytesOut.Add(uint64(5 + rdataHdrLen + len(p.Data)))
	if viaShm {
		// Also counted in RDataOut/BytesOut above: the shm counters split
		// the totals by channel, they do not fork them.
		nc.ShmRDataOut.Add(1)
		nc.ShmBytesOut.Add(uint64(5 + rdataHdrLen + len(p.Data)))
	}
	// The CTS already proved the consuming match, which is exactly what an
	// Ssend waits for; release it locally, no wire ack needed.
	if p.Ack != nil {
		close(p.Ack)
	}
	return nil
}

// sendv writes one frame as two iovecs — a small header and the caller's
// payload slice — with scatter-gather I/O (net.Buffers → writev), redialing
// once on failure exactly like send. The payload crosses from the user's
// buffer to the kernel with no intermediate copy.
func (t *Transport) sendv(dst int, hdr, payload []byte) error {
	oc, err := t.outbound(dst)
	if err != nil {
		return err
	}
	err = oc.writev(hdr, payload, t.cfg.writeTimeout)
	if err == nil {
		return nil
	}
	t.dropOut(dst, oc)
	oc, err2 := t.outbound(dst) // full retry budget for the redial
	if err2 != nil {
		return err2 // outbound already declared the peer down
	}
	if err3 := oc.writev(hdr, payload, t.cfg.writeTimeout); err3 != nil {
		t.dropOut(dst, oc)
		t.peerDown(dst, err3)
		return &mpi.ErrPeerLost{Rank: dst, Cause: err3}
	}
	return nil
}

// deadErr returns the typed failure for a send to dst if the failure
// detector has declared it dead, or nil.
func (t *Transport) deadErr(dst int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cause, dead := t.dead[dst]; dead {
		return &mpi.ErrPeerLost{Rank: dst, Cause: cause}
	}
	return nil
}

// Close implements mpi.Transport: it stops the accept and heartbeat loops,
// cancels pending suspicions, closes every connection, and releases pending
// synchronous senders with a nil error (an orderly shutdown is not a send
// failure).
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	for r, tm := range t.suspect {
		tm.Stop()
		delete(t.suspect, r)
	}
	ln := t.ln
	conns := append([]net.Conn(nil), t.inbound...)
	for _, oc := range t.out {
		conns = append(conns, oc.conn)
	}
	t.mu.Unlock()

	// The final telemetry report goes out before connections drop: counters
	// are complete at this point (the Env flushed observability first).
	t.teleFinal()
	if t.debugSrv != nil {
		t.debugSrv.Close()
	}
	ln.Close()
	t.closeShm()
	for _, c := range conns {
		c.Close()
	}
	t.ackMu.Lock()
	for id, pa := range t.pending {
		close(pa.ch)
		delete(t.pending, id)
	}
	for id, pa := range t.rdvOut {
		// Closing reads as nil; the sender's data write then fails with
		// ErrClosed through the closed transport, so no payload escapes.
		close(pa.ch)
		delete(t.rdvOut, id)
	}
	t.ackMu.Unlock()
	t.rdvMu.Lock()
	for k, p := range t.rdvIn {
		delete(t.rdvIn, k)
		p.Rdv.Fail(mpi.ErrClosed)
	}
	t.rdvMu.Unlock()
	t.wg.Wait()
	return nil
}

// outbound returns (dialing with retry if necessary) the connection for
// sends to dst. A dial that exhausts its retry budget declares the peer
// dead.
func (t *Transport) outbound(dst int) (*outConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, mpi.ErrClosed
	}
	if cause, dead := t.dead[dst]; dead {
		t.mu.Unlock()
		return nil, &mpi.ErrPeerLost{Rank: dst, Cause: cause}
	}
	if oc, ok := t.out[dst]; ok {
		t.mu.Unlock()
		return oc, nil
	}
	t.mu.Unlock()

	conn, err := t.dial(dst)
	if err != nil {
		if errors.Is(err, mpi.ErrClosed) {
			return nil, err
		}
		t.peerDown(dst, err)
		return nil, &mpi.ErrPeerLost{Rank: dst, Cause: err}
	}
	// Introduce ourselves before any traffic so the peer's failure detector
	// can attribute this stream (and clear any suspicion) immediately, and
	// a same-host peer learns this rank's intra-host channel before any CTS
	// written to this connection (shm.go).
	conn.SetWriteDeadline(time.Now().Add(t.cfg.writeTimeout))
	if _, err := conn.Write(helloFrame(t.rank, t.shmPathFor(dst))); err != nil {
		conn.Close()
		t.peerDown(dst, err)
		return nil, &mpi.ErrPeerLost{Rank: dst, Cause: err}
	}
	conn.SetWriteDeadline(time.Time{})

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		conn.Close()
		return nil, mpi.ErrClosed
	}
	if oc, ok := t.out[dst]; ok { // lost a dial race; keep the first
		conn.Close()
		return oc, nil
	}
	oc := &outConn{conn: conn, lastWrite: time.Now()}
	t.out[dst] = oc
	t.netCounters().Dials.Add(1)
	return oc, nil
}

// dial establishes one connection to dst with the transport's retry budget,
// counting retries and tracing them.
func (t *Transport) dial(dst int) (net.Conn, error) {
	return dialRetry(t.addrs[dst], t.cfg, t.stop, func(attempt int, wait time.Duration) {
		t.netCounters().DialRetries.Add(1)
		if tr := t.tracer(); tr != nil {
			tr.Record(perf.KDialRetry, int64(dst), int64(attempt), int64(wait), 0)
		}
	})
}

// dialRetry dials addr until it succeeds or the cfg.dialTimeout budget is
// spent, backing off exponentially with jitter between attempts. onRetry
// (optional) observes each scheduled retry; stop (optional) cancels the
// backoff wait. It is a standalone function so the schedule is testable
// without a Transport.
func dialRetry(addr string, cfg netConfig, stop <-chan struct{}, onRetry func(attempt int, wait time.Duration)) (net.Conn, error) {
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
		conn, err := net.DialTimeout("tcp", addr, per)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
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
		if stop != nil {
			select {
			case <-stop:
				return nil, mpi.ErrClosed
			case <-time.After(wait):
			}
		} else {
			time.Sleep(wait)
		}
	}
}

// dropOut removes a failed outbound connection, leaving redial to the next
// send; it is a no-op if the connection was already replaced.
func (t *Transport) dropOut(dst int, oc *outConn) {
	t.mu.Lock()
	if t.out[dst] == oc {
		delete(t.out, dst)
	}
	t.mu.Unlock()
	oc.conn.Close()
}

// severPeer abruptly closes the established outbound connection to dst
// without marking anything failed: the next send redials. It implements the
// "sever" fault action.
func (t *Transport) severPeer(dst int) {
	t.mu.Lock()
	oc := t.out[dst]
	delete(t.out, dst)
	t.mu.Unlock()
	if oc != nil {
		oc.conn.Close()
	}
}

// severAll closes the listener and every connection without marking the
// transport closed — the network-visible effect of a process crash. The
// "die" fault action uses it before exiting, and the chaos tests call it
// directly to simulate a rank's death inside one test process.
func (t *Transport) severAll() {
	t.mu.Lock()
	ln := t.ln
	conns := append([]net.Conn(nil), t.inbound...)
	for _, oc := range t.out {
		conns = append(conns, oc.conn)
	}
	t.out = make(map[int]*outConn)
	t.inbound = nil
	t.mu.Unlock()
	ln.Close()
	t.closeShm()
	for _, c := range conns {
		c.Close()
	}
}

// peerDown records the failure-detector verdict for one world rank: its
// connection state is discarded, pending synchronous sends to it fail with
// *mpi.ErrPeerLost, and the engine fails the receives only it could
// satisfy. Idempotent; a no-op after Close.
func (t *Transport) peerDown(rank int, cause error) {
	if rank == t.rank {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if _, dead := t.dead[rank]; dead {
		t.mu.Unlock()
		return
	}
	t.dead[rank] = cause
	oc := t.out[rank]
	delete(t.out, rank)
	if tm := t.suspect[rank]; tm != nil {
		tm.Stop()
		delete(t.suspect, rank)
	}
	t.mu.Unlock()
	if oc != nil {
		oc.conn.Close()
	}
	// Discard the intra-host channel first: closing its connection fails any
	// in-flight local payload write, whose TCP fallback then inherits the
	// verdict below — a severed same-host neighbor yields ErrPeerLost, not a
	// hang, exactly like the rdvOut CTS-waiter sweep.
	t.shmPeerDown(rank)
	lostErr := &mpi.ErrPeerLost{Rank: rank, Cause: cause}
	t.ackMu.Lock()
	for id, pa := range t.pending {
		if pa.dst != rank {
			continue
		}
		select {
		case pa.ch <- lostErr:
		default:
		}
		close(pa.ch)
		delete(t.pending, id)
	}
	for id, pa := range t.rdvOut {
		if pa.dst != rank {
			continue
		}
		pa.ch <- lostErr // capacity 1, sole send
		close(pa.ch)
		delete(t.rdvOut, id)
	}
	t.ackMu.Unlock()
	t.rdvMu.Lock()
	for k, p := range t.rdvIn {
		if k.src != rank {
			continue
		}
		delete(t.rdvIn, k)
		p.Rdv.Fail(lostErr)
	}
	t.rdvMu.Unlock()
	t.netCounters().PeersLost.Add(1)
	fmt.Fprintf(os.Stderr, "tcpnet: rank %d: peer rank %d lost: %v\n", t.rank, rank, cause)
	t.env.PeerLost(rank, cause)
	// Push the failure counters to the launcher right away — the survivors
	// may run on for a while, and the post-mortem wants the loss timestamped.
	go t.teleReport()
}

// suspectPeer starts the reconnect window for a rank whose inbound stream
// was lost: if no new connection from it identifies itself within
// cfg.peerTimeout, the peer is declared dead. A connection loss alone is
// not death — a live peer redials (sends retry transparently), and its
// hello cancels the suspicion.
func (t *Transport) suspectPeer(rank int, cause error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if _, dead := t.dead[rank]; dead {
		return
	}
	if _, ok := t.suspect[rank]; ok {
		return
	}
	t.suspect[rank] = time.AfterFunc(t.cfg.peerTimeout, func() {
		t.mu.Lock()
		delete(t.suspect, rank)
		t.mu.Unlock()
		t.peerDown(rank, fmt.Errorf("tcpnet: connection lost and not re-established within %v: %w", t.cfg.peerTimeout, cause))
	})
}

// clearSuspect cancels a pending suspicion: the rank proved itself alive.
func (t *Transport) clearSuspect(rank int) {
	t.mu.Lock()
	if tm := t.suspect[rank]; tm != nil {
		tm.Stop()
		delete(t.suspect, rank)
	}
	t.mu.Unlock()
}

// BroadcastAbort implements the abort hook behind mpi.Comm.Abort: it pushes
// an abort frame to every peer not already dead (briefly dialing peers with
// no established connection) and fails this rank's pending synchronous
// sends with the abort error. Best effort with a bounded per-peer timeout:
// unreachable peers are skipped, and the launcher's process-group kill is
// the backstop.
func (t *Transport) BroadcastAbort(code, origin int) {
	frame := bootstrap.AbortFrame(code, origin)
	var wg sync.WaitGroup
	for dst := range t.addrs {
		if dst == t.rank || t.deadErr(dst) != nil {
			continue
		}
		t.mu.Lock()
		oc, closed := t.out[dst], t.closed
		t.mu.Unlock()
		if closed {
			break
		}
		wg.Add(1)
		go func(dst int, oc *outConn) {
			defer wg.Done()
			if oc != nil && oc.write(frame, abortSendTimeout) == nil {
				t.netCounters().AbortsOut.Add(1)
				return
			}
			if bootstrap.SendAbort(t.addrs[dst], code, origin, abortSendTimeout) == nil {
				t.netCounters().AbortsOut.Add(1)
			}
		}(dst, oc)
	}
	wg.Wait()
	t.applyAbort(code, origin)
}

// applyAbort records the job-wide abort locally (first abort wins) and
// fails every pending synchronous send with it. The engine-side failure is
// applied separately by mpi.Env.
func (t *Transport) applyAbort(code, origin int) *mpi.AbortError {
	ae := &mpi.AbortError{Code: code, Origin: origin}
	if !t.abortErr.CompareAndSwap(nil, ae) {
		return t.abortErr.Load()
	}
	t.ackMu.Lock()
	for id, pa := range t.pending {
		select {
		case pa.ch <- ae:
		default:
		}
		close(pa.ch)
		delete(t.pending, id)
	}
	for id, pa := range t.rdvOut {
		pa.ch <- ae
		close(pa.ch)
		delete(t.rdvOut, id)
	}
	t.ackMu.Unlock()
	t.rdvMu.Lock()
	for k, p := range t.rdvIn {
		delete(t.rdvIn, k)
		p.Rdv.Fail(ae)
	}
	t.rdvMu.Unlock()
	// An aborting process usually exits moments later; ship the post-mortem
	// snapshot now rather than hoping Close still runs.
	go t.teleFinal()
	return ae
}

// acceptLoop receives inbound connections on one listener — the TCP world
// endpoint or (local=true) the intra-host payload socket — and spawns a
// reader per connection. Accepted connections of both flavors land in
// t.inbound so Close and severAll tear them all down.
func (t *Transport) acceptLoop(ln net.Listener, local bool) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound = append(t.inbound, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn, local)
	}
}

// heartbeatLoop keeps idle outbound connections warm so the peer's
// read-side failure detector can distinguish "idle but alive" from "gone".
// A heartbeat write failure just drops the connection; the next send (or
// the peer's own detector) decides the peer's fate.
func (t *Transport) heartbeatLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.cfg.heartbeat)
	defer ticker.Stop()
	hb := heartbeatFrame()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		t.mu.Lock()
		conns := make(map[int]*outConn, len(t.out))
		for d, oc := range t.out {
			conns[d] = oc
		}
		t.mu.Unlock()
		for d, oc := range conns {
			if !oc.idleFor(t.cfg.heartbeat) {
				continue
			}
			if err := oc.write(hb, t.cfg.writeTimeout); err != nil {
				t.dropOut(d, oc)
				continue
			}
			nc := t.netCounters()
			nc.HeartbeatsOut.Add(1)
			nc.BytesOut.Add(uint64(len(hb)))
		}
	}
}

// readLoop decodes frames from one inbound stream and posts them to the
// local engine, preserving stream order. Fixed-size frame parts (length
// prefix, kind, packet header, ack body) land in a per-connection scratch
// buffer so only the payload itself is allocated — exactly sized, because
// the engine hands it to the application, which owns it from then on.
//
// Every read carries a cfg.peerTimeout deadline: the sender heartbeats when
// idle, so prolonged silence on an open connection means the peer is hung
// or partitioned and it is declared dead immediately. A closed or broken
// connection only raises suspicion — the peer gets cfg.peerTimeout to
// re-establish before the same verdict.
//
// A local (intra-host channel) stream carries no liveness duty: it has no
// heartbeats, no read deadlines, and its loss neither suspects nor condemns
// the peer — the TCP stream owns the failure detector, and the sweeps close
// local connections when it rules. Only hello and RData frames are legal on
// it.
func (t *Transport) readLoop(conn net.Conn, local bool) {
	defer t.wg.Done()
	peer := -1
	var readErr error
	defer func() {
		if local || peer < 0 || readErr == nil {
			return
		}
		if errors.Is(readErr, os.ErrDeadlineExceeded) {
			t.peerDown(peer, fmt.Errorf("tcpnet: rank %d silent for %v", peer, t.cfg.peerTimeout))
		} else {
			t.suspectPeer(peer, readErr)
		}
	}()
	identify := func(rank int) {
		if peer < 0 && rank >= 0 && rank < len(t.addrs) {
			peer = rank
			if !local {
				t.clearSuspect(rank)
			}
		}
	}
	var scratch [5 + rtsHdrLen]byte
	readFull := func(buf []byte) error {
		if !local {
			conn.SetReadDeadline(time.Now().Add(t.cfg.peerTimeout))
		}
		_, err := io.ReadFull(conn, buf)
		return err
	}
	// readPayload fills buf in rdvChunk pieces so each chunk read refreshes
	// the silence deadline: a large transfer is judged by progress, not total
	// time.
	readPayload := func(buf []byte) error {
		for off := 0; off < len(buf); {
			end := off + rdvChunk
			if end > len(buf) {
				end = len(buf)
			}
			if err := readFull(buf[off:end]); err != nil {
				return err
			}
			off = end
		}
		return nil
	}
	for {
		if err := readFull(scratch[:5]); err != nil {
			readErr = err
			return
		}
		n := binary.LittleEndian.Uint32(scratch[:4])
		if n == 0 || n > maxFrame {
			readErr = fmt.Errorf("tcpnet: bad frame length %d", n)
			return
		}
		kind, body := scratch[4], int(n)-1
		if local && kind != kindHello && kind != kindRData {
			readErr = fmt.Errorf("tcpnet: unexpected frame kind %d on intra-host channel", kind)
			return
		}
		nc := t.netCounters()
		switch kind {
		case kindPacket:
			if body < packetHdrLen {
				readErr = fmt.Errorf("tcpnet: short packet frame (%d bytes)", body)
				return
			}
			if err := readFull(scratch[5 : 5+packetHdrLen]); err != nil {
				readErr = err
				return
			}
			srcWorld, p, ackID := parsePacketHeader(scratch[5 : 5+packetHdrLen])
			if payload := body - packetHdrLen; payload > 0 {
				buf := make([]byte, payload)
				if err := readFull(buf); err != nil {
					readErr = err
					return
				}
				p.Data = buf
			}
			identify(srcWorld)
			nc.FramesIn.Add(1)
			nc.BytesIn.Add(uint64(4 + 1 + body))
			if ackID != 0 {
				ch := make(chan error, 1)
				p.Ack = ch
				go t.sendAckWhenMatched(srcWorld, ackID, ch)
			}
			if err := t.env.Post(p); err != nil {
				return
			}
		case kindRTS:
			if body != rtsHdrLen {
				readErr = fmt.Errorf("tcpnet: bad rts frame length %d", body)
				return
			}
			if err := readFull(scratch[5 : 5+rtsHdrLen]); err != nil {
				readErr = err
				return
			}
			srcWorld, p, id, plen, err := parseRTSHeader(scratch[5 : 5+rtsHdrLen])
			if err != nil {
				readErr = err
				return
			}
			identify(srcWorld)
			nc.FramesIn.Add(1)
			nc.RTSIn.Add(1)
			nc.BytesIn.Add(4 + 1 + rtsHdrLen)
			key := rdvKey{src: srcWorld, id: id}
			t.rdvMu.Lock()
			_, dup := t.rdvIn[key]
			if !dup {
				p.Rdv = mpi.NewRendezvous(plen)
				t.rdvIn[key] = p
			}
			t.rdvMu.Unlock()
			if dup {
				// A redial replayed an RTS whose first copy did arrive; the
				// original placeholder already holds the match slot.
				continue
			}
			rdv := p.Rdv
			if err := t.env.Post(p); err != nil {
				t.rdvMu.Lock()
				delete(t.rdvIn, key)
				t.rdvMu.Unlock()
				rdv.Fail(err)
				return
			}
			go t.sendCTSWhenMatched(srcWorld, id, rdv)
		case kindCTS:
			if body != 8 {
				readErr = fmt.Errorf("tcpnet: bad cts frame length %d", body)
				return
			}
			if err := readFull(scratch[5 : 5+8]); err != nil {
				readErr = err
				return
			}
			id := binary.LittleEndian.Uint64(scratch[5 : 5+8])
			nc.FramesIn.Add(1)
			nc.CTSIn.Add(1)
			nc.BytesIn.Add(4 + 1 + 8)
			t.ackMu.Lock()
			if pa, ok := t.rdvOut[id]; ok {
				close(pa.ch) // reads as nil: clear to send
				delete(t.rdvOut, id)
			}
			t.ackMu.Unlock()
		case kindRData:
			if body < rdataHdrLen {
				readErr = fmt.Errorf("tcpnet: short rdata frame (%d bytes)", body)
				return
			}
			if err := readFull(scratch[5 : 5+rdataHdrLen]); err != nil {
				readErr = err
				return
			}
			srcWorld := int(int64(binary.LittleEndian.Uint64(scratch[5 : 5+8])))
			id := binary.LittleEndian.Uint64(scratch[13 : 13+8])
			plen := body - rdataHdrLen
			identify(srcWorld)
			key := rdvKey{src: srcWorld, id: id}
			t.rdvMu.Lock()
			p := t.rdvIn[key]
			t.rdvMu.Unlock()
			if p == nil {
				// Duplicate delivery after a redial replay, or a transfer the
				// failure sweeps already gave up on: drain and discard.
				if err := drainPayload(plen, readFull); err != nil {
					readErr = err
					return
				}
				nc.FramesIn.Add(1)
				nc.BytesIn.Add(uint64(4 + 1 + body))
				continue
			}
			if plen != p.Rdv.PayloadLen() {
				readErr = fmt.Errorf("tcpnet: rendezvous %d/%d payload is %d bytes, rts promised %d", srcWorld, id, plen, p.Rdv.PayloadLen())
				p.Rdv.Fail(readErr)
				t.rdvMu.Lock()
				delete(t.rdvIn, key)
				t.rdvMu.Unlock()
				return
			}
			// Read straight into the final buffer: this is the buffer the
			// matched receive hands to the application.
			buf := make([]byte, plen)
			if err := readPayload(buf); err != nil {
				readErr = err
				return // entry stays: a sender-side retry may still complete it
			}
			nc.FramesIn.Add(1)
			nc.RDataIn.Add(1)
			nc.BytesIn.Add(uint64(4 + 1 + body))
			if local {
				nc.ShmRDataIn.Add(1)
				nc.ShmBytesIn.Add(uint64(4 + 1 + body))
			}
			t.rdvMu.Lock()
			delete(t.rdvIn, key)
			t.rdvMu.Unlock()
			p.FinishRendezvous(buf)
		case kindAck:
			if body != 8 {
				readErr = fmt.Errorf("tcpnet: bad ack frame length %d", body)
				return
			}
			if err := readFull(scratch[5 : 5+8]); err != nil {
				readErr = err
				return
			}
			id := binary.LittleEndian.Uint64(scratch[5 : 5+8])
			nc.AcksIn.Add(1)
			nc.BytesIn.Add(4 + 1 + 8)
			t.ackMu.Lock()
			if pa, ok := t.pending[id]; ok {
				close(pa.ch)
				delete(t.pending, id)
			}
			t.ackMu.Unlock()
		case kindHello:
			if body < 8 || body > 8+maxShmPath {
				readErr = fmt.Errorf("tcpnet: bad hello frame length %d", body)
				return
			}
			buf := make([]byte, body)
			if err := readFull(buf); err != nil {
				readErr = err
				return
			}
			nc.BytesIn.Add(uint64(4 + 1 + body))
			src := int(int64(binary.LittleEndian.Uint64(buf)))
			identify(src)
			if !local && body > 8 {
				t.shmAdvertised(src, string(buf[8:]))
			}
		case kindHeartbeat:
			if body != 0 {
				readErr = fmt.Errorf("tcpnet: bad heartbeat frame length %d", body)
				return
			}
			nc.HeartbeatsIn.Add(1)
			nc.BytesIn.Add(4 + 1)
		case kindAbort:
			if body != 16 {
				readErr = fmt.Errorf("tcpnet: bad abort frame length %d", body)
				return
			}
			if err := readFull(scratch[5 : 5+16]); err != nil {
				readErr = err
				return
			}
			code := int(int64(binary.LittleEndian.Uint64(scratch[5 : 5+8])))
			origin := int(int64(binary.LittleEndian.Uint64(scratch[13 : 13+8])))
			nc.AbortsIn.Add(1)
			nc.BytesIn.Add(4 + 1 + 16)
			t.applyAbort(code, origin)
			t.env.AbortDelivered(code, origin)
			return // the job is over; no suspicion for this stream
		default:
			readErr = fmt.Errorf("tcpnet: unknown frame kind %d", kind)
			return
		}
	}
}

// sendAckWhenMatched waits for the local engine to match the packet, then
// returns the acknowledgment to the synchronous sender. A failed completion
// (abort, shutdown) produces no ack: the sender's own failure path delivers
// its error.
func (t *Transport) sendAckWhenMatched(srcWorld int, ackID uint64, matched <-chan error) {
	if err := <-matched; err != nil {
		return
	}
	var frame [5 + 8]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(1+8))
	frame[4] = kindAck
	binary.LittleEndian.PutUint64(frame[5:], ackID)
	if oc, err := t.outbound(srcWorld); err == nil {
		if oc.write(frame[:], t.cfg.writeTimeout) == nil { // best effort: the peer may already be gone
			t.netCounters().AcksOut.Add(1)
		}
	}
}

// sendCTSWhenMatched waits for the local engine to match a rendezvous
// placeholder, then tells the sender it is clear to ship the payload. A
// failed rendezvous (peer lost, abort, shutdown) produces no CTS: the
// sender's own failure sweeps deliver its error. CTS uses the full
// redial-once send path — a lost CTS would strand the sender until its
// failure detector fires, so it is worth a retry.
func (t *Transport) sendCTSWhenMatched(srcWorld int, id uint64, rdv *mpi.Rendezvous) {
	<-rdv.Matched()
	if rdv.MatchErr() != nil {
		return
	}
	if act, fired := t.sendFault(srcWorld, frameCTS); fired && act.kind == "drop" {
		return
	}
	var frame [5 + 8]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(1+8))
	frame[4] = kindCTS
	binary.LittleEndian.PutUint64(frame[5:], id)
	if err := t.send(srcWorld, frame[:]); err == nil {
		nc := t.netCounters()
		nc.CTSOut.Add(1)
		nc.BytesOut.Add(uint64(len(frame)))
	}
}

// drainPayload discards n payload bytes from the stream in deadline-refreshed
// chunks, keeping the connection usable after a rendezvous data frame whose
// transfer this side no longer tracks.
func drainPayload(n int, readFull func([]byte) error) error {
	if n <= 0 {
		return nil
	}
	buf := make([]byte, min(n, 32<<10))
	for n > 0 {
		c := min(n, len(buf))
		if err := readFull(buf[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// helloFrame frames this rank's introduction, the first write on every
// outbound connection: its world rank and, to a same-host peer, the path of
// its intra-host payload listener (empty otherwise).
//
//	u32 length | u8 kind | u64 srcWorld | socket path bytes
func helloFrame(rank int, shmPath string) []byte {
	b := make([]byte, 5+8+len(shmPath))
	binary.LittleEndian.PutUint32(b, uint32(1+8+len(shmPath)))
	b[4] = kindHello
	binary.LittleEndian.PutUint64(b[5:], uint64(rank))
	copy(b[13:], shmPath)
	return b
}

// heartbeatFrame frames one idle-connection liveness signal.
func heartbeatFrame() []byte {
	b := make([]byte, 5)
	binary.LittleEndian.PutUint32(b, 1)
	b[4] = kindHeartbeat
	return b
}

// encodePacketInto frames a packet into buf, reusing its capacity:
//
//	u32 length | u8 kind | u64 srcWorld | u64 ctx | i64 src | i64 tag |
//	u64 ackID | payload
func encodePacketInto(buf []byte, srcWorld int, p *mpi.Packet, ackID uint64) []byte {
	n := 4 + 1 + packetHdrLen + len(p.Data)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint32(buf, uint32(1+packetHdrLen+len(p.Data)))
	buf[4] = kindPacket
	binary.LittleEndian.PutUint64(buf[5:], uint64(srcWorld))
	binary.LittleEndian.PutUint64(buf[13:], p.Ctx)
	binary.LittleEndian.PutUint64(buf[21:], uint64(int64(p.Src)))
	binary.LittleEndian.PutUint64(buf[29:], uint64(int64(p.Tag)))
	binary.LittleEndian.PutUint64(buf[37:], ackID)
	copy(buf[45:], p.Data)
	return buf
}

// encodePacket frames a packet into a fresh buffer.
func encodePacket(srcWorld int, p *mpi.Packet, ackID uint64) []byte {
	return encodePacketInto(nil, srcWorld, p, ackID)
}

// parsePacketHeader decodes the fixed header of a kindPacket frame; hdr must
// be exactly packetHdrLen bytes. The returned packet has no payload yet.
func parsePacketHeader(hdr []byte) (srcWorld int, p *mpi.Packet, ackID uint64) {
	srcWorld = int(binary.LittleEndian.Uint64(hdr))
	ctx := binary.LittleEndian.Uint64(hdr[8:])
	src := int(int64(binary.LittleEndian.Uint64(hdr[16:])))
	tag := int(int64(binary.LittleEndian.Uint64(hdr[24:])))
	ackID = binary.LittleEndian.Uint64(hdr[32:])
	return srcWorld, &mpi.Packet{Ctx: ctx, Src: src, SrcWorld: srcWorld, Tag: tag}, ackID
}

// decodePacket parses the body of a kindPacket frame (after the length and
// kind bytes were consumed). It is the whole-buffer form of the streaming
// parse in readLoop and shares parsePacketHeader with it.
func decodePacket(body []byte) (srcWorld int, p *mpi.Packet, ackID uint64, err error) {
	if len(body) < packetHdrLen {
		return 0, nil, 0, errors.New("tcpnet: short packet frame")
	}
	srcWorld, p, ackID = parsePacketHeader(body[:packetHdrLen])
	p.Data = body[packetHdrLen:]
	return srcWorld, p, ackID, nil
}

// encodeRTSInto frames a rendezvous request-to-send into buf, which must be
// exactly 5+rtsHdrLen bytes:
//
//	u32 length | u8 kind | u64 srcWorld | u64 ctx | i64 src | i64 tag |
//	u64 rdvID | u64 payloadLen
func encodeRTSInto(buf []byte, srcWorld int, p *mpi.Packet, id uint64) {
	binary.LittleEndian.PutUint32(buf, uint32(1+rtsHdrLen))
	buf[4] = kindRTS
	binary.LittleEndian.PutUint64(buf[5:], uint64(srcWorld))
	binary.LittleEndian.PutUint64(buf[13:], p.Ctx)
	binary.LittleEndian.PutUint64(buf[21:], uint64(int64(p.Src)))
	binary.LittleEndian.PutUint64(buf[29:], uint64(int64(p.Tag)))
	binary.LittleEndian.PutUint64(buf[37:], id)
	binary.LittleEndian.PutUint64(buf[45:], uint64(len(p.Data)))
}

// encodeRTS frames a request-to-send into a fresh buffer (tests).
func encodeRTS(srcWorld int, p *mpi.Packet, id uint64) []byte {
	buf := make([]byte, 5+rtsHdrLen)
	encodeRTSInto(buf, srcWorld, p, id)
	return buf
}

// parseRTSHeader decodes the body of a kindRTS frame; hdr must be exactly
// rtsHdrLen bytes. The returned packet is the receive-side placeholder
// envelope, without its Rendezvous attached yet. The promised length is
// validated against the frame-size bound the payload's own data frame must
// later satisfy.
func parseRTSHeader(hdr []byte) (srcWorld int, p *mpi.Packet, id uint64, plen int, err error) {
	srcWorld = int(binary.LittleEndian.Uint64(hdr))
	ctx := binary.LittleEndian.Uint64(hdr[8:])
	src := int(int64(binary.LittleEndian.Uint64(hdr[16:])))
	tag := int(int64(binary.LittleEndian.Uint64(hdr[24:])))
	id = binary.LittleEndian.Uint64(hdr[32:])
	n := int64(binary.LittleEndian.Uint64(hdr[40:]))
	if n <= 0 || n > maxFrame-1-rdataHdrLen {
		return 0, nil, 0, 0, fmt.Errorf("tcpnet: bad rts payload length %d", n)
	}
	return srcWorld, &mpi.Packet{Ctx: ctx, Src: src, SrcWorld: srcWorld, Tag: tag}, id, int(n), nil
}

// decodeRTS parses the body of a kindRTS frame (after the length and kind
// bytes were consumed); the whole-buffer form used by tests and fuzzing.
func decodeRTS(body []byte) (srcWorld int, p *mpi.Packet, id uint64, plen int, err error) {
	if len(body) != rtsHdrLen {
		return 0, nil, 0, 0, errors.New("tcpnet: bad rts frame length")
	}
	return parseRTSHeader(body)
}

// encodeRDataHeader frames the fixed prefix of a rendezvous data frame into
// buf, which must be exactly 5+rdataHdrLen bytes; the payload follows as its
// own iovec:
//
//	u32 length | u8 kind | u64 srcWorld | u64 rdvID | payload
func encodeRDataHeader(buf []byte, srcWorld int, id uint64, payloadLen int) {
	binary.LittleEndian.PutUint32(buf, uint32(1+rdataHdrLen+payloadLen))
	buf[4] = kindRData
	binary.LittleEndian.PutUint64(buf[5:], uint64(srcWorld))
	binary.LittleEndian.PutUint64(buf[13:], id)
}

// decodeRData parses the body of a kindRData frame: the sender's world rank,
// the rendezvous id, and the payload (aliasing body). The whole-buffer form
// of readLoop's streaming parse, used by tests and fuzzing.
func decodeRData(body []byte) (srcWorld int, id uint64, payload []byte, err error) {
	if len(body) < rdataHdrLen {
		return 0, 0, nil, errors.New("tcpnet: short rdata frame")
	}
	srcWorld = int(int64(binary.LittleEndian.Uint64(body)))
	id = binary.LittleEndian.Uint64(body[8:])
	return srcWorld, id, body[rdataHdrLen:], nil
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) (kind byte, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("tcpnet: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}
