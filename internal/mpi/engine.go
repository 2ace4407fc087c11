package mpi

import (
	"sync"

	"mph/internal/mpi/perf"
)

// engine is the receive-side matching core owned by a single rank. It is the
// canonical two-queue MPI design:
//
//   - the unexpected-message queue (UMQ) holds packets that arrived before a
//     matching receive was posted;
//   - the posted-receive queue (PRQ) holds receives posted before a matching
//     packet arrived.
//
// A packet is in at most one place: post walks the PRQ and hands the packet
// straight to the first matching receive, or else appends it to the UMQ; a
// receive walks the UMQ and consumes the first matching packet, or else
// appends itself to the PRQ. Each queue is one FIFO list, so a match costs
// time linear in the queue's depth — a handful of entries on every workload
// (DESIGN.md §7).
//
// Ordering invariants, both read off the list order:
//
//   - Non-overtaking: messages from one sender arrive in the order they were
//     sent (the in-process transport posts under the sender's program order;
//     the TCP transport uses one ordered byte stream per peer). The UMQ is in
//     arrival order and a receive takes its first match, so for any fixed
//     (ctx, src, tag) receives consume in send order.
//   - Posted order: when a packet matches several posted receives, the one
//     posted first wins — exact or wildcard alike, since the PRQ is in post
//     order and a packet takes its first match.
//
// Wakeups are targeted: every posted receive owns its own completion
// channel, so completing one operation wakes exactly one waiter instead of
// broadcasting to all.
//
// Posting allocates nothing: a posted receive's record lives inside its
// Request (a caller-owned request is re-armed period after period), and a
// blocking Recv borrows one from the engine's own free list.
type engine struct {
	mu   sync.Mutex
	fail error // non-nil once the engine stopped: ErrClosed or an abort error

	// groups maps a live message context to its communicator group
	// (communicator rank -> world rank), registered by newComm. The engine
	// needs it to translate peer loss — reported in world ranks by the
	// transport — into the communicator-local source ranks that posted
	// receives carry.
	groups map[uint64][]int

	// lost records every world rank the transport has declared dead, with
	// the transport-level cause. Receives naming a lost peer fail with
	// *ErrPeerLost instead of waiting forever.
	lost map[int]error

	unexpected ulist // the UMQ, in arrival order
	ucount     int
	ufree      *umsg // recycled UMQ nodes, linked through next

	posted plist // the PRQ, in post order
	pcount int
	pfree  *precv // blocking-Recv records between uses, linked through next

	// Performance variables, all plain values mutated under mu (the hot
	// paths already hold it, so counting costs a few integer adds — no
	// extra synchronization). perfSnap copies them out for Snapshot.
	umqHW, prqHW    int
	matchUnexpected uint64      // receive consumed an already-queued message
	matchPosted     uint64      // arrival completed a posted receive
	recvFrom        []peerCount // arrivals indexed by source world rank

	// tr, when non-nil, receives match and recv-post events. It is set
	// before traffic starts and never cleared, so the off path is a plain
	// nil check.
	tr *perf.Tracer
}

// peerCount is one source rank's arrival totals; keeping messages and bytes
// adjacent makes the per-arrival accounting one bounds check and one cache
// line.
type peerCount struct {
	msgs, bytes uint64
}

// umsg is one unexpected message, linked into the UMQ.
type umsg struct {
	pkt        *Packet
	prev, next *umsg
}

// precv is one posted receive: the record behind a blocked Recv or a live
// request. Completion puts one token on ready exactly once per post,
// with pkt or err set beforehand (both writes ordered by engine.mu before
// the signal). The channel is made at the record's first post and serves
// every later one: a record is either inside a Request, whose Wait takes the
// token and puts it back (so Wait stays idempotent), or on the
// engine's free list, borrowed by one blocking Recv at a time.
type precv struct {
	ctx      uint64
	src, tag int

	ready chan struct{}
	pkt   *Packet
	err   error
	// dst is the caller's own buffer (StartRecvInto), nil otherwise. A matching
	// rendezvous placeholder learns it at the match, so the transport reads
	// the payload straight into it; the waiter copies any other packet in.
	dst []byte

	queued     bool // still linked in the PRQ; guarded by engine.mu
	prev, next *precv
}

// arm readies the completion channel for one more signal: made on first use,
// and emptied of a token nobody collected (a request completed or cancelled
// and never waited on).
func (r *precv) arm() {
	if r.ready == nil {
		r.ready = make(chan struct{}, 1)
	}
	select {
	case <-r.ready:
	default:
	}
}

// complete wakes the record's waiter. It must be called at most once per
// enqueue, under engine.mu, after pkt/err are set. The caller must not touch
// the record afterwards: its waiter may re-post or recycle it immediately.
func (r *precv) complete() {
	r.ready <- struct{}{}
}

// ulist is a FIFO of unexpected messages.
type ulist struct{ head, tail *umsg }

func (l *ulist) pushBack(m *umsg) {
	m.prev = l.tail
	m.next = nil
	if l.tail != nil {
		l.tail.next = m
	} else {
		l.head = m
	}
	l.tail = m
}

func (l *ulist) remove(m *umsg) {
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		l.head = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	} else {
		l.tail = m.prev
	}
	m.prev, m.next = nil, nil
}

// plist is a FIFO of posted receives.
type plist struct{ head, tail *precv }

func (l *plist) pushBack(r *precv) {
	r.prev = l.tail
	r.next = nil
	if l.tail != nil {
		l.tail.next = r
	} else {
		l.head = r
	}
	l.tail = r
}

func (l *plist) remove(r *precv) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.prev, r.next = nil, nil
}

func newEngine(worldSize int) *engine {
	return &engine{
		recvFrom: make([]peerCount, worldSize),
		groups:   make(map[uint64][]int),
		lost:     make(map[int]error),
	}
}

// registerGroup records the communicator group behind a message context so
// the engine can translate communicator-local source ranks to world ranks
// when a peer is declared lost. Contexts are content-derived and stable, so
// re-registering an existing context is a no-op.
func (e *engine) registerGroup(ctx uint64, group []int) {
	e.mu.Lock()
	if e.groups != nil {
		if _, ok := e.groups[ctx]; !ok {
			g := make([]int, len(group))
			copy(g, group)
			e.groups[ctx] = g
		}
	}
	e.mu.Unlock()
}

// worldOf translates a communicator-local source rank on ctx to a world
// rank. It reports false for wildcard sources and unregistered contexts.
// Caller holds e.mu.
func (e *engine) worldOf(ctx uint64, src int) (int, bool) {
	if src == AnySource {
		return 0, false
	}
	g, ok := e.groups[ctx]
	if !ok || src < 0 || src >= len(g) {
		return 0, false
	}
	return g[src], true
}

// lostErrFor returns the *ErrPeerLost for a receive naming a dead peer, or
// nil when the source is live, wildcard, or untranslatable. Caller holds
// e.mu.
func (e *engine) lostErrFor(ctx uint64, src int) error {
	if len(e.lost) == 0 {
		return nil
	}
	w, ok := e.worldOf(ctx, src)
	if !ok {
		return nil
	}
	if cause, dead := e.lost[w]; dead {
		return &ErrPeerLost{Rank: w, Cause: cause}
	}
	return nil
}

// setTracer installs the event tracer; it must run before traffic starts
// (the nil check in the hot paths is unsynchronized by design).
func (e *engine) setTracer(tr *perf.Tracer) {
	e.mu.Lock()
	e.tr = tr
	e.mu.Unlock()
}

// perfSnap copies the engine's performance variables; it is the collector
// behind perf.Rank.Snapshot.
func (e *engine) perfSnap() perf.EngineSnap {
	e.mu.Lock()
	defer e.mu.Unlock()
	recvMsgs := make([]uint64, len(e.recvFrom))
	recvBytes := make([]uint64, len(e.recvFrom))
	for i, pc := range e.recvFrom {
		recvMsgs[i] = pc.msgs
		recvBytes[i] = pc.bytes
	}
	return perf.EngineSnap{
		UMQDepth:          e.ucount,
		UMQHighWater:      e.umqHW,
		PRQDepth:          e.pcount,
		PRQHighWater:      e.prqHW,
		MatchesUnexpected: e.matchUnexpected,
		MatchesPosted:     e.matchPosted,
		RecvMsgs:          recvMsgs,
		RecvBytes:         recvBytes,
	}
}

// arrivalsFrom reports the messages and bytes this engine has received from
// one source world rank. Transports derive "sent to d" from d's engine: an
// eager send is delivered before it returns, so delivery counts are exact.
func (e *engine) arrivalsFrom(src int) (msgs, bytes uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if src < 0 || src >= len(e.recvFrom) {
		return 0, 0
	}
	return e.recvFrom[src].msgs, e.recvFrom[src].bytes
}

// post delivers a message into the engine. It is called by transports.
func (e *engine) post(m *Packet) error {
	e.mu.Lock()
	if e.fail != nil {
		err := e.fail
		e.mu.Unlock()
		return err
	}
	if m.Rdv != nil {
		m.Rdv.Hold() // the engine's, until the receive that takes it is done
	}
	if s := m.SrcWorld; s >= 0 && s < len(e.recvFrom) {
		e.recvFrom[s].msgs++
		e.recvFrom[s].bytes += uint64(m.PayloadLen())
	}
	if pr := e.takePosted(m); pr != nil {
		// Direct hand-off: complete exactly the oldest matching posted
		// receive, nobody else wakes.
		e.matchPosted++
		if e.tr != nil {
			e.tr.Record(perf.KMatch, int64(m.SrcWorld), int64(m.Tag), int64(m.PayloadLen()), int64(e.ucount))
		}
		pr.pkt = m
		if m.Rdv != nil {
			m.Rdv.signalMatched(pr.dst) // consuming match: queued for its CTS
		}
		pr.complete()
		e.mu.Unlock()
		return nil
	}
	e.addUnexpected(m)
	e.mu.Unlock()
	return nil
}

// takePosted removes and returns the first (oldest-posted) receive matching
// packet m, or nil.
func (e *engine) takePosted(m *Packet) *precv {
	for r := e.posted.head; r != nil; r = r.next {
		if m.matches(r.ctx, r.src, r.tag) {
			e.unlinkPosted(r)
			return r
		}
	}
	return nil
}

// unlinkPosted removes a still-queued posted receive from the PRQ.
func (e *engine) unlinkPosted(r *precv) {
	e.posted.remove(r)
	r.queued = false
	e.pcount--
}

// enqueuePosted appends record r, complete or never used, as a posted
// receive for (ctx, src, tag). dst is the receive's own buffer, or nil.
func (e *engine) enqueuePosted(r *precv, ctx uint64, src, tag int, dst []byte) {
	if r.queued {
		panic("mpi: receive posted on a request that is still pending")
	}
	r.arm()
	r.pkt, r.err = nil, nil
	r.ctx, r.src, r.tag, r.dst = ctx, src, tag, dst
	r.queued = true
	e.posted.pushBack(r)
	e.pcount++
	if e.pcount > e.prqHW {
		e.prqHW = e.pcount
	}
	if e.tr != nil {
		e.tr.Record(perf.KRecvPost, int64(src), int64(tag), 0, int64(e.pcount))
	}
}

// addUnexpected appends a packet to the UMQ on a node from the free list.
func (e *engine) addUnexpected(m *Packet) {
	n := e.ufree
	if n != nil {
		e.ufree = n.next
	} else {
		n = &umsg{}
	}
	n.pkt = m
	e.unexpected.pushBack(n)
	e.ucount++
	if e.ucount > e.umqHW {
		e.umqHW = e.ucount
	}
}

// removeUnexpected unlinks a UMQ node and recycles it; the caller must
// capture n.pkt first.
func (e *engine) removeUnexpected(n *umsg) {
	e.unexpected.remove(n)
	e.ucount--
	n.pkt = nil
	n.next = e.ufree
	e.ufree = n
}

// takeUnexpected removes and returns the first (earliest-arrived) packet
// matching (ctx, src, tag), or nil. dst is the receive's own buffer, or nil;
// a rendezvous placeholder learns it here, before the CTS that lets the
// payload come.
func (e *engine) takeUnexpected(ctx uint64, src, tag int, dst []byte) *Packet {
	n := e.unexpected.head
	for n != nil && !n.pkt.matches(ctx, src, tag) {
		n = n.next
	}
	if n == nil {
		return nil
	}
	pkt := n.pkt
	e.removeUnexpected(n)
	e.matchUnexpected++
	if e.tr != nil {
		e.tr.Record(perf.KMatch, int64(pkt.SrcWorld), int64(pkt.Tag), int64(pkt.PayloadLen()), int64(e.ucount))
	}
	if pkt.Rdv != nil {
		pkt.Rdv.signalMatched(dst) // consuming match: queued for its CTS
	}
	return pkt
}

// recv blocks until a message matching (ctx, src, tag) is available and
// returns it; dst is the receive's own buffer, or nil. It is postRecv on a
// record borrowed from the engine's free list, then a wait on it, so neither
// path allocates in steady state.
func (e *engine) recv(ctx uint64, src, tag int, dst []byte) (*Packet, error) {
	m, pr, err := e.postRecv(nil, ctx, src, tag, dst)
	if pr != nil {
		<-pr.ready
		m, err = pr.pkt, pr.err
		pr.pkt, pr.dst = nil, nil
		e.mu.Lock()
		pr.next, e.pfree = e.pfree, pr
		e.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return awaitPayload(m)
}

// awaitPayload blocks until a matched packet's payload is actually present:
// an eager packet returns immediately, a rendezvous placeholder waits for the
// transport to finish (or fail) the transfer — and on failure ends the
// packet's life here, as consume would have. Called without engine.mu held.
func awaitPayload(m *Packet) (*Packet, error) {
	if m != nil && m.Rdv != nil {
		if err := m.Rdv.await(); err != nil {
			m.recycle()
			return nil, err
		}
	}
	return m, nil
}

// postRecv is the one receive entry: it either consumes an already-arrived
// unexpected message (inline completion, m != nil) or enqueues a record and
// returns it, for the caller to wait on or cancel — pr itself, or, when pr is
// nil, one borrowed from the free list that the caller gives back. The UMQ is
// consulted before the peer-loss table, so messages that arrived before the
// peer died remain consumable. dst is the receive's own buffer, or nil.
func (e *engine) postRecv(pr *precv, ctx uint64, src, tag int, dst []byte) (*Packet, *precv, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fail != nil {
		return nil, nil, e.fail
	}
	if m := e.takeUnexpected(ctx, src, tag, dst); m != nil {
		return m, nil, nil
	}
	if err := e.lostErrFor(ctx, src); err != nil {
		return nil, nil, err
	}
	if pr == nil {
		if pr = e.pfree; pr != nil {
			e.pfree, pr.next = pr.next, nil
		} else {
			pr = new(precv)
		}
	}
	e.enqueuePosted(pr, ctx, src, tag, dst)
	return nil, pr, nil
}

// cancel withdraws a posted receive that has not matched yet. It reports
// whether the cancellation won the race against an incoming message; on
// success the record completes with ErrCanceled.
func (e *engine) cancel(r *precv) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !r.queued {
		return false
	}
	e.unlinkPosted(r)
	r.err = ErrCanceled
	r.complete()
	return true
}

// close shuts the engine down: pending and future receives fail with
// ErrClosed.
func (e *engine) close() {
	e.failAll(ErrClosed)
}

// abort stops the engine for a job-wide abort: pending and future receives
// fail with err.
func (e *engine) abort(err error) {
	e.failAll(err)
}

// failAll is the common teardown behind close and abort: every posted
// receive, and every rendezvous placeholder still waiting for its payload,
// fails with err, and so does every later operation. The first call wins;
// later calls are no-ops.
func (e *engine) failAll(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fail != nil {
		return
	}
	e.fail = err
	for n := e.unexpected.head; n != nil; n = n.next {
		if rdv := n.pkt.Rdv; rdv != nil {
			rdv.Fail(err) // no-op if the payload already landed
			rdv.Release()
		}
	}
	e.unexpected, e.ucount, e.ufree = ulist{}, 0, nil
	// Capture each record's successor before completing it: a pool-owned
	// record may be recycled by its waiter the moment it is signaled.
	for r := e.posted.head; r != nil; {
		next := r.next
		r.queued = false
		r.err = err
		r.complete()
		r = next
	}
	e.posted, e.pcount, e.pfree = plist{}, 0, nil
	e.groups = nil
	e.lost = nil
}

// peerLost records the death of one world rank and fails every posted
// receive that can only be satisfied by that rank. Wildcard
// (AnySource) operations are untouched — another peer may still satisfy
// them — and messages the dead peer delivered before dying remain
// consumable from the UMQ. Idempotent per rank; a no-op after close/abort.
func (e *engine) peerLost(world int, cause error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fail != nil {
		return
	}
	if _, dup := e.lost[world]; dup {
		return
	}
	e.lost[world] = cause
	lostErr := &ErrPeerLost{Rank: world, Cause: cause}
	// Rendezvous placeholders announced by the dead peer whose payload never
	// landed are unconsumable: drop them from the UMQ so they cannot poison a
	// wildcard receive that a live peer could still satisfy. Eager messages
	// (and finished rendezvous) delivered before death stay consumable.
	for n := e.unexpected.head; n != nil; {
		next := n.next
		if n.pkt.Rdv != nil && n.pkt.SrcWorld == world && !n.pkt.Rdv.delivered() {
			rdv := n.pkt.Rdv
			e.removeUnexpected(n)
			rdv.Fail(lostErr)
			rdv.Release()
		}
		n = next
	}
	for r := e.posted.head; r != nil; {
		next := r.next
		if w, ok := e.worldOf(r.ctx, r.src); ok && w == world {
			e.unlinkPosted(r)
			r.err = lostErr
			r.complete()
		}
		r = next
	}
}
