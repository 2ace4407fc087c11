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
// A packet is in at most one place: post consults the PRQ and hands the
// packet straight to the oldest matching receive, or else appends it to the
// UMQ; a receive consults the UMQ and consumes the oldest matching packet,
// or else appends itself to the PRQ. Both queues are indexed by exact
// (ctx, src, tag) envelope buckets so the fully-qualified case is O(1);
// wildcard receives (AnySource/AnyTag) live on a separate list and are
// arbitrated against exact candidates by sequence number.
//
// Ordering invariants:
//
//   - Non-overtaking: messages from one sender arrive in the order they were
//     sent (the in-process transport posts under the sender's program order;
//     the TCP transport uses one ordered byte stream per peer). Each UMQ
//     bucket and the UMQ arrival list are FIFO, so for any fixed
//     (ctx, src, tag) receives consume in send order.
//   - Posted order: when a packet matches several posted receives, the one
//     posted first wins. Each PRQ bucket and the wildcard list are FIFO in
//     post order, and the global sequence number decides between the exact
//     bucket head and the first matching wildcard record — without it, a
//     wildcard receive posted before an exact receive could be starved by
//     the newer exact match.
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
	fail error  // non-nil once the engine stopped: ErrClosed or an abort error
	seq  uint64 // arrival/post sequence, monotone under mu

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

	// Unexpected-message queue: exact-envelope buckets plus an engine-wide
	// arrival-order list for wildcard matching. Emptied buckets are kept in
	// the map for reuse (the common traffic pattern hammers a handful of
	// envelopes) and swept in bulk once the empty ones dominate; ulastKey /
	// ulast memoize the most recent bucket so ping-pong traffic skips the
	// map hash entirely. ufree recycles list nodes.
	ubuckets map[matchKey]*ulist
	uempty   int
	ulastKey matchKey
	ulast    *ulist
	uallHead *umsg
	uallTail *umsg
	ucount   int
	ufree    *umsg

	// Posted-receive queue: exact-envelope buckets plus the wildcard list,
	// with the same empty-bucket retention policy and memoized last bucket.
	pbuckets map[matchKey]*plist
	pempty   int
	plastKey matchKey
	plast    *plist
	pwild    plist
	pcount   int
	pfree    *precv // blocking-Recv records between uses, linked through next

	// Performance variables, all plain values mutated under mu (the hot
	// paths already hold it, so counting costs a few integer adds — no
	// extra synchronization). perfSnap copies them out for Snapshot.
	umqHW, prqHW    int
	matchUnexpected uint64 // receive consumed an already-queued message
	matchPosted     uint64 // arrival completed a posted receive
	matchWildcard   uint64 // matched receive carried AnySource/AnyTag
	// (exact matches are derived: unexpected + posted - wildcard.)
	recvFrom []peerCount // arrivals indexed by source world rank

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

// matchKey identifies one fully-qualified envelope: a communicator context
// plus concrete source and tag.
type matchKey struct {
	ctx      uint64
	src, tag int
}

// umsg is one unexpected message, linked into two FIFO lists: its
// exact-envelope bucket and the engine-wide arrival list.
type umsg struct {
	pkt *Packet
	seq uint64

	bucketPrev, bucketNext *umsg
	allPrev, allNext       *umsg
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
	seq      uint64

	ready chan struct{}
	pkt   *Packet
	err   error
	// dst is the caller's own buffer (StartRecvInto), nil otherwise. A matching
	// rendezvous placeholder learns it at the match, so the transport reads
	// the payload straight into it; the waiter copies any other packet in.
	dst []byte

	queued     bool // still linked in the engine; guarded by engine.mu
	exact      bool // lives in a bucket (src and tag concrete) vs the wildcard list
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

// matchesPacket reports whether packet m satisfies this receive's envelope.
func (r *precv) matchesPacket(m *Packet) bool {
	return r.ctx == m.Ctx &&
		(r.src == AnySource || r.src == m.Src) &&
		(r.tag == AnyTag || r.tag == m.Tag)
}

// ulist is a FIFO of unexpected messages sharing one exact envelope.
type ulist struct{ head, tail *umsg }

func (l *ulist) pushBack(m *umsg) {
	m.bucketPrev = l.tail
	m.bucketNext = nil
	if l.tail != nil {
		l.tail.bucketNext = m
	} else {
		l.head = m
	}
	l.tail = m
}

func (l *ulist) remove(m *umsg) {
	if m.bucketPrev != nil {
		m.bucketPrev.bucketNext = m.bucketNext
	} else {
		l.head = m.bucketNext
	}
	if m.bucketNext != nil {
		m.bucketNext.bucketPrev = m.bucketPrev
	} else {
		l.tail = m.bucketPrev
	}
	m.bucketPrev, m.bucketNext = nil, nil
}

// plist is a FIFO of posted receives (one exact bucket, or the wildcard
// list).
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
		ubuckets: make(map[matchKey]*ulist),
		pbuckets: make(map[matchKey]*plist),
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
		MatchesWildcard:   e.matchWildcard,
		MatchesExact:      e.matchUnexpected + e.matchPosted - e.matchWildcard,
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

// sweepThreshold is the number of retained empty buckets beyond which a
// queue considers a bulk sweep (it also requires empties to outnumber live
// buckets, keeping the sweep amortized O(1) per operation).
const sweepThreshold = 64

// post delivers a message into the engine. It is called by transports.
func (e *engine) post(m *Packet) error {
	e.mu.Lock()
	if e.fail != nil {
		err := e.fail
		e.mu.Unlock()
		return err
	}
	if s := m.SrcWorld; s >= 0 && s < len(e.recvFrom) {
		e.recvFrom[s].msgs++
		e.recvFrom[s].bytes += uint64(m.PayloadLen())
	}
	if e.pcount > 0 {
		if pr := e.takePosted(m); pr != nil {
			// Direct hand-off: complete exactly the oldest matching posted
			// receive, nobody else wakes.
			e.matchPosted++
			if !pr.exact {
				e.matchWildcard++
			}
			if e.tr != nil {
				e.tr.Record(perf.KMatch, int64(m.SrcWorld), int64(m.Tag), int64(m.PayloadLen()), int64(e.ucount))
			}
			pr.pkt = m
			if m.Rdv != nil {
				m.Rdv.signalMatched(pr.dst) // consuming match: transport may send CTS
			}
			pr.complete()
			e.mu.Unlock()
			return nil
		}
	}
	e.addUnexpected(m)
	e.mu.Unlock()
	return nil
}

// takePosted removes and returns the oldest-posted receive matching packet
// m, or nil. Candidates are the head of m's exact-envelope bucket and the
// first matching wildcard record; the post sequence number arbitrates
// between the two lists so "oldest posted wins" holds globally.
func (e *engine) takePosted(m *Packet) *precv {
	var exact *precv
	if l := e.pbucketLookup(matchKey{m.Ctx, m.Src, m.Tag}); l != nil {
		exact = l.head
	}
	var wild *precv
	for r := e.pwild.head; r != nil; r = r.next {
		if r.matchesPacket(m) {
			wild = r
			break
		}
	}
	var chosen *precv
	switch {
	case exact == nil:
		chosen = wild
	case wild == nil:
		chosen = exact
	case wild.seq < exact.seq:
		chosen = wild
	default:
		chosen = exact
	}
	if chosen == nil {
		return nil
	}
	e.unlinkPosted(chosen)
	return chosen
}

// pbucketLookup returns the posted-receive bucket for key, or nil, without
// creating one. The one-entry memo makes repeated hits on one envelope skip
// the map hash.
func (e *engine) pbucketLookup(key matchKey) *plist {
	if e.plast != nil && e.plastKey == key {
		return e.plast
	}
	if l, ok := e.pbuckets[key]; ok {
		e.plastKey, e.plast = key, l
		return l
	}
	return nil
}

// unlinkPosted removes a still-queued posted receive from its list. Emptied
// buckets stay in the map for reuse until empties dominate, then are swept.
func (e *engine) unlinkPosted(r *precv) {
	if r.exact {
		l := e.pbucketLookup(matchKey{r.ctx, r.src, r.tag})
		l.remove(r)
		if l.head == nil {
			e.pempty++
			if e.pempty > sweepThreshold && e.pempty*2 > len(e.pbuckets) {
				e.sweepPostedBuckets()
			}
		}
	} else {
		e.pwild.remove(r)
	}
	r.queued = false
	e.pcount--
}

// sweepPostedBuckets drops every retained empty posted-receive bucket.
func (e *engine) sweepPostedBuckets() {
	for k, l := range e.pbuckets {
		if l.head == nil {
			delete(e.pbuckets, k)
		}
	}
	e.pempty = 0
	e.plast = nil // the memo may point at a dropped bucket
}

// enqueuePosted appends record r, complete or never used, as a posted
// receive for (ctx, src, tag). dst is the receive's own buffer, or nil.
func (e *engine) enqueuePosted(r *precv, ctx uint64, src, tag int, dst []byte) {
	if r.queued {
		panic("mpi: receive posted on a request that is still pending")
	}
	e.seq++
	r.arm()
	r.pkt, r.err = nil, nil
	r.ctx, r.src, r.tag, r.dst = ctx, src, tag, dst
	r.seq = e.seq
	r.queued = true
	r.exact = src != AnySource && tag != AnyTag
	if r.exact {
		key := matchKey{ctx, src, tag}
		l := e.pbucketLookup(key)
		if l == nil {
			l = &plist{}
			e.pbuckets[key] = l
			e.plastKey, e.plast = key, l
			e.pempty++ // counted empty until the push below
		}
		if l.head == nil {
			e.pempty--
		}
		l.pushBack(r)
	} else {
		e.pwild.pushBack(r)
	}
	e.pcount++
	if e.pcount > e.prqHW {
		e.prqHW = e.pcount
	}
	if e.tr != nil {
		e.tr.Record(perf.KRecvPost, int64(src), int64(tag), 0, int64(e.pcount))
	}
}

// addUnexpected appends a packet to the UMQ (bucket plus arrival list).
func (e *engine) addUnexpected(m *Packet) {
	e.seq++
	n := e.newUmsg(m)
	key := matchKey{m.Ctx, m.Src, m.Tag}
	l := e.ubucketLookup(key)
	if l == nil {
		l = &ulist{}
		e.ubuckets[key] = l
		e.ulastKey, e.ulast = key, l
		e.uempty++ // counted empty until the push below
	}
	if l.head == nil {
		e.uempty--
	}
	l.pushBack(n)
	n.allPrev = e.uallTail
	if e.uallTail != nil {
		e.uallTail.allNext = n
	} else {
		e.uallHead = n
	}
	e.uallTail = n
	e.ucount++
	if e.ucount > e.umqHW {
		e.umqHW = e.ucount
	}
}

// newUmsg takes a UMQ node off the free list or allocates one.
func (e *engine) newUmsg(m *Packet) *umsg {
	n := e.ufree
	if n != nil {
		e.ufree = n.bucketNext
		n.bucketNext = nil
	} else {
		n = &umsg{}
	}
	n.pkt = m
	n.seq = e.seq
	return n
}

// ubucketLookup returns the UMQ bucket for key, or nil, without creating
// one.
func (e *engine) ubucketLookup(key matchKey) *ulist {
	if e.ulast != nil && e.ulastKey == key {
		return e.ulast
	}
	if l, ok := e.ubuckets[key]; ok {
		e.ulastKey, e.ulast = key, l
		return l
	}
	return nil
}

// findUnexpected returns the earliest-arrived unexpected message matching
// (ctx, src, tag) without removing it, or nil. A fully-qualified envelope is
// an O(1) bucket peek; wildcards walk the arrival-order list so the oldest
// match wins regardless of which bucket holds it.
func (e *engine) findUnexpected(ctx uint64, src, tag int) *umsg {
	if e.ucount == 0 {
		return nil
	}
	if src != AnySource && tag != AnyTag {
		if l := e.ubucketLookup(matchKey{ctx, src, tag}); l != nil {
			return l.head
		}
		return nil
	}
	for n := e.uallHead; n != nil; n = n.allNext {
		if n.pkt.matches(ctx, src, tag) {
			return n
		}
	}
	return nil
}

// removeUnexpected unlinks a UMQ node from its bucket and the arrival list
// and recycles the node; the caller must capture n.pkt first.
func (e *engine) removeUnexpected(n *umsg) {
	l := e.ubucketLookup(matchKey{n.pkt.Ctx, n.pkt.Src, n.pkt.Tag})
	l.remove(n)
	if l.head == nil {
		e.uempty++
		if e.uempty > sweepThreshold && e.uempty*2 > len(e.ubuckets) {
			e.sweepUnexpectedBuckets()
		}
	}
	if n.allPrev != nil {
		n.allPrev.allNext = n.allNext
	} else {
		e.uallHead = n.allNext
	}
	if n.allNext != nil {
		n.allNext.allPrev = n.allPrev
	} else {
		e.uallTail = n.allPrev
	}
	n.allPrev, n.allNext = nil, nil
	e.ucount--
	n.pkt = nil
	n.bucketNext = e.ufree
	e.ufree = n
}

// sweepUnexpectedBuckets drops every retained empty UMQ bucket.
func (e *engine) sweepUnexpectedBuckets() {
	for k, l := range e.ubuckets {
		if l.head == nil {
			delete(e.ubuckets, k)
		}
	}
	e.uempty = 0
	e.ulast = nil // the memo may point at a dropped bucket
}

// takeUnexpected removes and returns the earliest-arrived matching packet,
// or nil. dst is the receive's own buffer, or nil; a rendezvous placeholder
// learns it here, before the CTS that lets the payload come.
func (e *engine) takeUnexpected(ctx uint64, src, tag int, dst []byte) *Packet {
	n := e.findUnexpected(ctx, src, tag)
	if n == nil {
		return nil
	}
	pkt := n.pkt
	e.removeUnexpected(n)
	e.matchUnexpected++
	if src == AnySource || tag == AnyTag {
		e.matchWildcard++
	}
	if e.tr != nil {
		e.tr.Record(perf.KMatch, int64(pkt.SrcWorld), int64(pkt.Tag), int64(pkt.PayloadLen()), int64(e.ucount))
	}
	if pkt.Rdv != nil {
		pkt.Rdv.signalMatched(dst) // consuming match: transport may send CTS
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
// transport to finish (or fail) the transfer. Called without engine.mu held.
func awaitPayload(m *Packet) (*Packet, error) {
	if m != nil && m.Rdv != nil {
		if err := m.Rdv.await(); err != nil {
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

// pendingUnexpected reports the UMQ depth (for tests and diagnostics).
func (e *engine) pendingUnexpected() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ucount
}

// pendingPosted reports the PRQ depth (for tests and diagnostics).
func (e *engine) pendingPosted() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pcount
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
	for n := e.uallHead; n != nil; n = n.allNext {
		if n.pkt.Rdv != nil {
			n.pkt.Rdv.Fail(err) // no-op if the payload already landed
		}
	}
	e.uallHead, e.uallTail = nil, nil
	e.ubuckets = nil
	e.ulast = nil
	e.ufree = nil
	e.ucount = 0
	// Capture each record's successor before completing it: a pool-owned
	// record may be recycled by its waiter the moment it is signaled.
	for _, l := range e.pbuckets {
		for r := l.head; r != nil; {
			next := r.next
			r.queued = false
			r.err = err
			r.complete()
			r = next
		}
	}
	e.pbuckets = nil
	e.plast = nil
	for r := e.pwild.head; r != nil; {
		next := r.next
		r.queued = false
		r.err = err
		r.complete()
		r = next
	}
	e.pwild = plist{}
	e.pcount = 0
	e.pfree = nil
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
	for n := e.uallHead; n != nil; {
		next := n.allNext
		if n.pkt.Rdv != nil && n.pkt.SrcWorld == world && !n.pkt.Rdv.delivered() {
			rdv := n.pkt.Rdv
			e.removeUnexpected(n)
			rdv.Fail(lostErr)
		}
		n = next
	}
	// Both PRQ homes can hold records naming a concrete source: exact
	// buckets, and the wildcard list for concrete-source/AnyTag records.
	for _, l := range e.pbuckets {
		for r := l.head; r != nil; {
			next := r.next
			if w, ok := e.worldOf(r.ctx, r.src); ok && w == world {
				e.unlinkPosted(r)
				r.err = lostErr
				r.complete()
			}
			r = next
		}
	}
	for r := e.pwild.head; r != nil; {
		next := r.next
		if w, ok := e.worldOf(r.ctx, r.src); ok && w == world {
			e.unlinkPosted(r)
			r.err = lostErr
			r.complete()
		}
		r = next
	}
}
