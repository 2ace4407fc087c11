// Package tcpnet is the multi-process transport for the mpi substrate:
// each executable of an MPMD job is a real OS process, ranks exchange
// packets over per-direction TCP streams, and the initial wiring happens
// through the mphrun rendezvous (package bootstrap).
//
// The package is three pieces. frame.go is the wire codec, the only file
// that knows a frame's layout. peer.go is the per-destination object, one per
// world rank, that owns both outbound carriers (the TCP stream and the
// same-host Unix-socket payload channel of shm.go), the one send path, and
// the peer's verdict. stream.go is the receive side: one decoder
// loop per inbound connection dispatching to a handler per frame kind. This
// file holds the Transport that ties them to the mpi engine.
//
// Each sender owns one outbound connection per peer and writes its packets
// to it in program order; TCP's ordered delivery plus the engine's
// first-match scan yield the same non-overtaking guarantee as the
// in-process transport.
//
// # Eager/rendezvous protocol
//
// Payloads below DefaultEagerThreshold (64 KiB) are sent eagerly:
// copied into a pooled frame and written in one shot, completing before the
// receiver has matched. Payloads at or above the threshold use a rendezvous
// (DESIGN.md §12): the sender writes a small RTS frame carrying only the
// envelope and promised length, the receiver posts a placeholder packet that
// holds the sender's position in the match order, and once a receive
// consumes the placeholder the receiver answers with CTS. The sender then
// writes the payload with scatter-gather I/O (sock.Conn.Writev) straight
// from the caller's slice — no intermediate copy on either side: the
// receiver reads the payload into its final exactly-sized buffer. A
// rendezvous send therefore blocks until the receiver has matched, giving
// Send synchronous semantics above the threshold (permitted by the MPI
// standard, which lets any send block until the matching receive).
//
// # Fault tolerance
//
// The transport assumes peers can die at any point and turns every such
// death into a typed error instead of a hang:
//
//   - The launcher decides who is dead: a rank's death is its session with
//     the launcher ending, which the launcher reports to every other rank
//     as a down line (bootstrap.Session). How a stream ends is no verdict:
//     a live peer redials.
//   - A send judges its own dial and write: bounded backoff-plus-jitter dial
//     retry (MPH_DIAL_TIMEOUT / MPH_DIAL_BACKOFF / MPH_DIAL_BACKOFF_MAX), a
//     deadline on every frame write (MPH_WRITE_TIMEOUT), one transparent
//     redial-and-resend; a spent budget or a second failed write declares
//     the peer dead too. A down line ends a send's dial retry at once.
//   - A dead rank's rendezvous senders fail, the engine fails receives that
//     only it could satisfy (mpi.ErrPeerLost), and later sends fail fast.
//   - Close lingers until every peer has read what it sent, then says bye:
//     a down line never overtakes its rank's data.
//   - mpi.Comm.Abort reaches every rank, failing all pending operations with
//     mpi.ErrAborted: as abort frames on the streams the aborting rank
//     already has, and through the launcher, which relays it over every
//     rank's session (bootstrap.Session) — the path the launcher's own abort
//     on child failure takes too.
//
// MPH_FAULT injects deterministic faults for chaos testing; see
// ParseFaultSpec. All failure traffic is counted in perf.NetCounters and
// recorded by the event tracer (dial-retry, peer-lost, abort events).
package tcpnet

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/sock"
)

// abortSendTimeout bounds the per-peer effort of an abort broadcast: aborts
// must go out promptly even when some peers are already unreachable.
const abortSendTimeout = time.Second

// frameBuf is an outbound eager frame buffer. A frame is dead the moment its
// blocking write returns, so Deliver recycles it for the next send instead
// of allocating header+payload garbage per packet.
type frameBuf struct {
	b    []byte
	next *frameBuf
}

// frameListDepth bounds the transport's free list of frame buffers, like an
// mpi.PacketPool's: a handful of senders write at once, and a burst of them
// should not stay resident for the rest of the job.
const frameListDepth = 64

// frameList is the transport's bounded free list of outbound frame buffers,
// the same shape as the mpi.PacketPool its readers take inbound packets from:
// a mutex, a linked list, a depth bound, so a buffer handed back is always
// there for the next send — under the race detector too, where a sync.Pool
// drops a share of its Puts.
type frameList struct {
	mu   sync.Mutex
	free *frameBuf
	n    int
}

// get takes a frame buffer off the list, or makes an empty one.
func (fl *frameList) get() *frameBuf {
	fl.mu.Lock()
	fb := fl.free
	if fb != nil {
		fl.free, fb.next = fb.next, nil
		fl.n--
	}
	fl.mu.Unlock()
	if fb == nil {
		fb = new(frameBuf)
	}
	return fb
}

// put recycles a frame buffer whose write has returned. A buffer grown past
// maxPooledFrame, by an eager send above the default threshold, sheds its
// backing array so one large send cannot pin payload-sized memory for the
// life of the process.
func (fl *frameList) put(fb *frameBuf) {
	if cap(fb.b) > maxPooledFrame {
		fb.b = nil
	}
	fl.mu.Lock()
	if fl.n < frameListDepth {
		fb.next, fl.free = fl.free, fb
		fl.n++
	}
	fl.mu.Unlock()
}

// DialTimeout is the default total budget for rendezvous registration and
// for establishing one peer connection including all retries; MPH_DIAL_TIMEOUT
// overrides it.
const DialTimeout = 30 * time.Second

// osExit is swapped out by tests of the "die" fault action.
var osExit = os.Exit

// waiter is one blocked sender: a rendezvous send awaiting its CTS. Its
// release sets err (nil for a CTS) and then puts the one token on ready. The
// record, channel included, serves send after send from the transport's
// free list, which never holds more records than were ever waiting at once.
type waiter struct {
	ready chan struct{}
	err   error
	dst   int
	next  *waiter // free-list link

	// hdr takes the send's RTS and then its RData header: a buffer on the
	// sender's stack would escape to the heap through the write.
	hdr [prefixLen + rtsHdrLen]byte
}

// release wakes the waiter with err; exactly once per registration, by
// whoever removed it from the table.
func (w *waiter) release(err error) {
	w.err = err
	w.ready <- struct{}{}
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
	peers []peer // indexed by world rank; the entry for rank itself is idle
	env   *mpi.Env
	ln    *sock.Listener
	cfg   netConfig

	faults *faultSet // parsed MPH_FAULT rules, nil when no faults are injected

	// pool recycles inbound eager packets with their payload buffers, sized
	// like the outbound frames (maxPooledFrame), and rendezvous placeholders
	// with their records: the stream readers take from it, the receive that
	// consumes a packet gives it back. It also queues the matched
	// placeholders for ctsLoop.
	pool *mpi.PacketPool
	// frames recycles outbound eager frames, whose buffers Deliver fills.
	frames frameList

	// Intra-host payload listener (shm.go): nil until ctsLoop opens it at the
	// first CTS to a same-host peer, and for good when that failed. Every
	// sending goroutine reads it.
	shmLn atomic.Pointer[sock.Listener]

	mu       sync.Mutex
	inbound  map[*sock.Conn]struct{} // accepted connections of both carriers, each until its reader exits
	shmDir   string                  // the listener's private socket directory, removed on Close; "" until made
	shmTried bool                    // openShm has run, or the transport closed or severed: no listener is made after

	stop chan struct{} // closed by Close, under mu; cancels dial backoff

	abortErr atomic.Pointer[mpi.AbortError] // set once the job is aborting

	// The waiter tables: what one failure sweep (failWaiters) must release.
	// waiters holds this rank's blocked rendezvous senders by the id their
	// RTS carried; wfree the records between sends. rdvIn holds inbound
	// rendezvous placeholders between RTS and the full payload landing, keyed
	// by (sender world rank, id); each entry holds its record.
	waitMu  sync.Mutex
	waitSeq uint64
	waiters map[uint64]*waiter
	wfree   *waiter
	rdvIn   map[rdvKey]*mpi.Packet

	// ctsBuf is ctsLoop's frame buffer.
	ctsBuf [prefixLen + 8]byte

	// net points at the rank's perf counters once the Env exists; frames
	// read before then (none in practice: peers dial after rendezvous)
	// fall back to a throwaway counter block.
	net atomic.Pointer[perf.NetCounters]

	// sess is the rank's one connection to its launcher, open from
	// registration to Close (or the process's exit): its end is this rank's
	// death to the job.
	sess *bootstrap.Session

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

// isClosed reports whether Close has begun.
func (t *Transport) isClosed() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
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
	// Every address a rank binds or dials is an IP literal: a host name in
	// MPH_BIND (ListenAddr) or MPH_RENDEZVOUS (Register) fails Init at once,
	// naming the variable. Bind where the launcher said to (MPH_BIND;
	// loopback by default) and advertise an address peers on other hosts can
	// dial: the wildcard bind advertises the routable interface address.
	bind := os.Getenv(bootstrap.EnvBind)
	laddr, err := bootstrap.ListenAddr(bind)
	if err != nil {
		return nil, nil, err
	}
	ln, err := sock.Listen("tcp", laddr)
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
	sess, err := bootstrap.Register(rendezvous, rank, self, cfg.dialTimeout)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	book := sess.Book()
	if len(book) != size {
		sess.Close()
		ln.Close()
		return nil, nil, fmt.Errorf("tcpnet: address book has %d entries, world is %d", len(book), size)
	}
	t := &Transport{
		rank:    rank,
		peers:   make([]peer, size),
		ln:      ln,
		sess:    sess,
		cfg:     cfg,
		faults:  faults,
		pool:    mpi.NewPacketPool(maxPooledFrame),
		inbound: make(map[*sock.Conn]struct{}),
		stop:    make(chan struct{}),
		waiters: make(map[uint64]*waiter),
		rdvIn:   make(map[rdvKey]*mpi.Packet),
	}
	hosts := make([]string, size)
	for r, ep := range book {
		pr := &t.peers[r]
		pr.t, pr.rank, pr.addr, pr.down = t, r, ep.Addr, make(chan struct{})
		hosts[r] = ep.Host
	}
	env := mpi.NewEnv(rank, size, t)
	env.SetHosts(hosts)
	t.env = env
	pv := env.Perf()
	t.net.Store(&pv.Net)
	pv.SetSentCollector(func() (msgs, bytes []uint64) {
		msgs = make([]uint64, size)
		bytes = make([]uint64, size)
		for d := range t.peers {
			msgs[d] = t.peers[d].sentMsgs.Load()
			bytes[d] = t.peers[d].sentBytes.Load()
		}
		return msgs, bytes
	})
	pv.SetHost(host)
	if off, bound, ok := sess.ClockOffset(); ok {
		pv.SetClockOffset(off, bound)
	}
	t.wg.Add(3)
	go t.acceptLoop(t.ln, false)
	go t.ctsLoop()
	go func() {
		defer t.wg.Done()
		sess.Serve(t.abortDelivered, t.downDelivered)
	}()
	if every, _ := sess.ReportEvery(); every > 0 {
		t.wg.Add(1)
		go t.reportLoop(every)
	}
	return t, env, nil
}

// reportLoop pushes a live snapshot to the launcher every interval until
// the transport closes; the final report is an abort's or Close's job.
func (t *Transport) reportLoop(interval time.Duration) {
	defer t.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		if err := t.sess.Report(t.snapshot(), false); err != nil {
			return // launcher gone; the final report will fail too
		}
	}
}

// report pushes one snapshot, when the launcher takes reports: an
// event-driven update like a peer-loss verdict, so the launcher sees the
// failure counters without waiting out the reporting interval, or a final
// one — Close's, or an abort's post-mortem, which a crashing job still
// delivers.
func (t *Transport) report(final bool) {
	if _, ok := t.sess.ReportEvery(); ok {
		t.sess.Report(t.snapshot(), final) //nolint:errcheck // best-effort diagnostics
	}
}

// snapshot returns the rank's perf snapshot as a report carries it.
func (t *Transport) snapshot() []byte {
	snap := t.env.Perf().Snapshot()
	b, _ := snap.AppendBinary(nil) // never fails
	return b
}

// downDelivered acts on the launcher's down line: rank's session ended, and
// final says it closed cleanly. peerDown ignores a line naming this rank or
// no rank of the world — it comes from outside the process — and any line
// once the transport is closing or the job has aborted.
func (t *Transport) downDelivered(rank int, final bool) {
	cause := fmt.Errorf("tcpnet: rank %d's session with the launcher ended", rank)
	if final {
		cause = fmt.Errorf("tcpnet: rank %d closed", rank)
	}
	t.peerDown(rank, cause, final)
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

// addWaiter registers a sender blocked on dst, on a record from the free
// list, and returns the id its frame carries for the reply to quote.
func (t *Transport) addWaiter(dst int) (uint64, *waiter) {
	t.waitMu.Lock()
	defer t.waitMu.Unlock()
	w := t.wfree
	if w != nil {
		t.wfree, w.next = w.next, nil
	} else {
		w = &waiter{ready: make(chan struct{}, 1)}
	}
	w.err, w.dst = nil, dst
	t.waitSeq++
	t.waiters[t.waitSeq] = w
	return t.waitSeq, w
}

// putWaiter returns a sender's record to the free list once its send is
// over, emptied of a release nobody waited for (its RTS never left).
func (t *Transport) putWaiter(w *waiter) {
	select {
	case <-w.ready:
	default:
	}
	t.waitMu.Lock()
	w.next, t.wfree = t.wfree, w
	t.waitMu.Unlock()
}

// releaseWaiter wakes the sender registered under id, if it is still
// waiting: its CTS arrived. forgetWaiter drops the registration of an RTS
// that never left, so no CTS will come.
func (t *Transport) releaseWaiter(id uint64) {
	t.waitMu.Lock()
	if w, ok := t.waiters[id]; ok {
		delete(t.waiters, id)
		w.release(nil)
	}
	t.waitMu.Unlock()
}

func (t *Transport) forgetWaiter(id uint64) {
	t.waitMu.Lock()
	delete(t.waiters, id)
	t.waitMu.Unlock()
}

// forgetRdv removes an inbound rendezvous placeholder from the table and
// drops the entry's hold on its record, unless a failure sweep got there
// first.
func (t *Transport) forgetRdv(key rdvKey, p *mpi.Packet) {
	t.waitMu.Lock()
	ours := t.rdvIn[key] == p
	if ours {
		delete(t.rdvIn, key)
	}
	t.waitMu.Unlock()
	if ours {
		p.Rdv.Release()
	}
}

// failWaiters is the one failure sweep: every blocked sender and every
// inbound rendezvous placeholder whose peer satisfies match is released with
// err. Peer death, job abort and Close differ only in the predicate and the
// error. An orderly shutdown is not a send failure, so mpi.ErrClosed reaches
// senders as a plain release (a CTS waiter's data write then fails with
// ErrClosed through the closed transport, so no payload escapes).
func (t *Transport) failWaiters(match func(rank int) bool, err error) {
	t.waitMu.Lock()
	defer t.waitMu.Unlock()
	for id, w := range t.waiters {
		if !match(w.dst) {
			continue
		}
		delete(t.waiters, id)
		if err == mpi.ErrClosed {
			w.release(nil)
		} else {
			w.release(err)
		}
	}
	for k, p := range t.rdvIn {
		if match(k.src) {
			delete(t.rdvIn, k)
			p.Rdv.Fail(err)
			p.Rdv.Release()
		}
	}
}

// everyPeer is the failWaiters predicate of the job-wide sweeps.
func everyPeer(int) bool { return true }

// ignoreDrop turns the report of a "drop" fault into success: the frame
// vanishes, the send itself "succeeds".
func ignoreDrop(err error) error {
	if err == errDropped {
		return nil
	}
	return err
}

// Deliver implements mpi.Transport. Sends to a rank declared dead fail fast
// with *mpi.ErrPeerLost; sends after an abort fail with the abort error.
func (t *Transport) Deliver(dst int, p mpi.Packet) error {
	if dst < 0 || dst >= len(t.peers) {
		return mpi.ErrRank
	}
	if ae := t.abortErr.Load(); ae != nil {
		return ae
	}
	pr := &t.peers[dst]
	if dst != t.rank {
		if err := pr.deadErr(); err != nil {
			return err
		}
	}
	pr.sentMsgs.Add(1)
	pr.sentBytes.Add(uint64(len(p.Data)))
	switch {
	case dst == t.rank:
		return t.env.Post(t.pool.Copy(p)) // local fast path: the sender's slice stays the sender's
	case t.rendezvousEligible(len(p.Data)):
		return t.deliverRendezvous(pr, p)
	}
	f := frame{kind: kindPacket, src: t.rank, ctx: p.Ctx, rank: p.Src, tag: p.Tag}
	fb := t.frames.get()
	if n := prefixLen + packetHdrLen + len(p.Data); cap(fb.b) < n {
		fb.b = make([]byte, 0, n)
	}
	fb.b = append(encode(fb.b[:0], f, len(p.Data)), p.Data...)
	err := pr.send(kindPacket, fb.b, nil)
	if err == nil {
		nc := t.netCounters()
		nc.FramesOut.Add(1)
		nc.BytesOut.Add(uint64(len(fb.b)))
	}
	t.frames.put(fb)
	return ignoreDrop(err)
}

// rendezvousEligible reports whether a payload of n bytes takes the
// rendezvous path: non-empty and at or above the eager threshold.
func (t *Transport) rendezvousEligible(n int) bool {
	return n > 0 && n >= t.cfg.eagerThreshold
}

// deliverRendezvous sends one payload with the rendezvous protocol: RTS with
// the envelope, block until the receiver's CTS proves the consuming match,
// then the payload as a header iovec plus the caller's slice (writev) — over
// the intra-host channel when one is negotiated (shm.go), else TCP. The
// CTS wait is released with a typed error by the failure sweep when the
// peer dies, the job aborts, or the transport closes — a rendezvous send
// never hangs on a dead receiver.
func (t *Transport) deliverRendezvous(pr *peer, p mpi.Packet) error {
	id, w := t.addWaiter(pr.rank)
	defer t.putWaiter(w)
	rts := encode(w.hdr[:0], frame{kind: kindRTS, src: t.rank, ctx: p.Ctx, rank: p.Src, tag: p.Tag, id: id, plen: len(p.Data)}, 0)
	if err := pr.send(kindRTS, rts, nil); err != nil {
		t.forgetWaiter(id)
		return ignoreDrop(err)
	}
	nc := t.netCounters()
	nc.FramesOut.Add(1)
	nc.RTSOut.Add(1)
	nc.BytesOut.Add(uint64(len(rts)))
	if tr := t.tracer(); tr != nil {
		tr.Record(perf.KRendezvous, int64(pr.rank), int64(p.Tag), int64(len(p.Data)), int64(id))
	}
	<-w.ready
	if w.err != nil {
		return w.err
	}
	// CTS received: the receiver has matched. Ship the payload.
	data := encode(w.hdr[:0], frame{kind: kindRData, src: t.rank, id: id}, len(p.Data))
	if err := pr.send(kindRData, data, p.Data); err != nil {
		return ignoreDrop(err)
	}
	nc.FramesOut.Add(1)
	nc.RDataOut.Add(1)
	nc.BytesOut.Add(uint64(len(data) + len(p.Data)))
	return nil
}

// ctsLoop is the transport's one CTS writer. It sends the CTS of every
// placeholder the engine matched, in match order, until Close: no goroutine
// is started per RTS, and a stream's read loop, which may be the one that
// posted the match, never writes. A failed rendezvous gets no CTS: the
// sender's own failure sweep delivers its error.
func (t *Transport) ctsLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case <-t.pool.Matches():
		}
		for src, id, ok := t.pool.NextMatch(); ok; src, id, ok = t.pool.NextMatch() {
			t.sendCTS(src, id)
		}
	}
}

// sendCTS tells the sender of rendezvous id that its receive matched. The
// CTS takes the full redial-once send path: one lost on a stale connection
// would strand a sender whose peer is alive, where no down line ever comes.
// It is counted before it is written, since it lets the transfer finish: a
// count read once the receive returned includes it. A CTS that did not go
// out (the peer may already be gone) is taken back out of the count.
func (t *Transport) sendCTS(src int, id uint64) {
	if t.sameHost(src) {
		t.advertiseShm(&t.peers[src])
	}
	cts := encode(t.ctsBuf[:0], frame{kind: kindCTS, id: id}, 0)
	nc := t.netCounters()
	nc.CTSOut.Add(1)
	nc.BytesOut.Add(uint64(len(cts)))
	if t.peers[src].send(kindCTS, cts, nil) != nil {
		nc.CTSOut.Add(^uint64(0))
		nc.BytesOut.Add(^uint64(len(cts) - 1))
	}
}

// Close implements mpi.Transport: it lingers until every peer has read what
// this rank sent, says bye, closes every connection, and releases blocked
// senders (an orderly shutdown is not a send failure).
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.isClosed() {
		t.mu.Unlock()
		return nil
	}
	close(t.stop)
	t.mu.Unlock()

	// The bye waits for the linger, unless the job aborted: it has no order
	// left to keep. The final report goes out before connections drop:
	// counters are complete at this point (the Env flushed observability
	// first).
	if t.abortErr.Load() == nil {
		t.linger()
	}
	t.report(true)
	t.sess.Bye() //nolint:errcheck // a launcher that misses it reads a crash; severAll hangs up
	t.severAll()
	t.failWaiters(everyPeer, mpi.ErrClosed)
	t.wg.Wait()
	return nil
}

// lingerTimeout bounds Close's wait for its peers to read what it sent.
const lingerTimeout = 5 * time.Second

// linger half-closes every outbound stream of both carriers and waits, up to
// lingerTimeout in all, for each to read EOF: a peer's reader closes its end
// only once it has posted every frame before the EOF. No send opens a new
// stream meanwhile (stop is closed), and readers here keep running, so two
// ranks closing at once release each other.
func (t *Transport) linger() {
	var outs []*outConn
	for i := range t.peers {
		pr := &t.peers[i]
		pr.mu.Lock()
		for _, oc := range [...]*outConn{pr.tcp, pr.unix} {
			if oc != nil {
				outs = append(outs, oc)
			}
		}
		pr.mu.Unlock()
	}
	deadline := time.Now().Add(lingerTimeout)
	for _, oc := range outs {
		oc.conn.CloseWrite()
		oc.conn.SetReadDeadline(deadline)
	}
	var b [1]byte
	for _, oc := range outs {
		oc.conn.Read(b[:]) // the peer never writes here: EOF, a reset, or the deadline
	}
}

// severAll closes the listeners, the session and every connection without
// marking the transport closed — the network-visible effect of a process
// crash. The "die" fault action uses it before exiting, the chaos tests call
// it directly to simulate a rank's death inside one test process, and Close
// ends with it. Readers unregister their own connections as they exit.
func (t *Transport) severAll() {
	t.ln.Close()
	t.sess.Close()
	t.closeShm()
	t.mu.Lock()
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	for i := range t.peers {
		t.peers[i].sever(false)
		t.peers[i].sever(true)
	}
}

// BroadcastAbort implements the abort hook behind mpi.Comm.Abort: it writes
// an abort frame on every outbound stream this rank already has, and once on
// its session, whence the launcher relays it to every other rank — so a peer
// this rank never talked to hears it too, and no rank ever dials to abort.
// It then fails this rank's pending rendezvous sends with the abort error.
// Best effort with a bounded per-write timeout: the launcher's process-group
// kill is the backstop.
func (t *Transport) BroadcastAbort(code, origin int) {
	abort := encode(nil, frame{kind: kindAbort, code: code, origin: origin}, 0)
	nc := t.netCounters()
	var wg sync.WaitGroup
	for i := range t.peers {
		oc := t.peers[i].established()
		if i == t.rank || oc == nil || t.isClosed() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if oc.write(abort, nil, abortSendTimeout) == nil {
				nc.AbortsOut.Add(1)
			}
		}()
	}
	if t.sess.Abort(code) == nil {
		nc.AbortsOut.Add(1)
	}
	wg.Wait()
	t.applyAbort(code, origin)
}

// abortDelivered applies a job-wide abort that arrived from elsewhere — an
// abort frame on a peer's stream, or an abort on the session, from the
// launcher or relayed by it.
func (t *Transport) abortDelivered(code, origin int) {
	t.netCounters().AbortsIn.Add(1)
	t.applyAbort(code, origin)
	t.env.AbortDelivered(code, origin)
}

// applyAbort records the job-wide abort locally (first abort wins) and
// fails everything waiting on any peer with it. The engine-side failure is
// applied separately by mpi.Env.
func (t *Transport) applyAbort(code, origin int) *mpi.AbortError {
	ae := &mpi.AbortError{Code: code, Origin: origin}
	if !t.abortErr.CompareAndSwap(nil, ae) {
		return t.abortErr.Load()
	}
	t.failWaiters(everyPeer, ae)
	// An aborting process usually exits moments later; ship the post-mortem
	// snapshot now rather than hoping Close still runs. The session stays
	// open: its end would tell the other ranks this one died, and could beat
	// the abort itself there.
	go t.report(true)
	return ae
}

// acceptLoop receives inbound connections on one listener — the TCP world
// endpoint or (local=true) the intra-host payload socket — and spawns a
// reader per connection. Accepted connections of both carriers are
// registered in t.inbound so Close and severAll tear them all down.
func (t *Transport) acceptLoop(ln *sock.Listener, local bool) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.isClosed() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn, local)
	}
}
