package perf

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mph/internal/wire"
)

// Kind classifies one trace event.
type Kind uint8

// Trace event kinds. The A..D payload fields are kind-specific:
//
//	KSend:       A=destination world rank, B=tag, C=payload bytes
//	KRecvPost:   A=requested source (-1 wildcard), B=tag (-1 wildcard), D=PRQ depth
//	KMatch:      A=source world rank, B=tag, C=payload bytes, D=UMQ depth
//	KBegin:      A=span (a CollOp or a handshake Phase), B=two-level CollPhase (0 for the whole span), C=payload bytes
//	KEnd:        A, B as the KBegin it closes
//	KCommSplit:  A=color, B=new communicator size
//	KCommDup:    (none)
//	KCommJoin:   A=group size
//	KDialRetry:  A=destination world rank, B=attempt number, C=backoff ns
//	KPeerLost:   A=lost world rank
//	KAbort:      A=abort code, B=origin world rank (-1 launcher)
//	KRendezvous: A=destination world rank, B=tag, C=payload bytes, D=rendezvous id
//	KShmChannel: A=peer world rank, B=1 channel established / 0 fell back to TCP
//
// SpanName names what a KBegin/KEnd pair brackets. The per-message hot-path
// kinds — KSend, KRecvPost, KMatch — are subject to 1-in-N sampling
// (SetSample); every other kind is always recorded.
const (
	KSend Kind = iota
	KRecvPost
	KMatch
	KBegin
	KEnd
	KCommSplit
	KCommDup
	KCommJoin
	KDialRetry
	KPeerLost
	KAbort
	KRendezvous
	KShmChannel
	numKinds
)

var kindNames = [numKinds]string{
	"send", "recv-post", "match", "begin", "end",
	"comm-split", "comm-dup", "comm-join",
	"dial-retry", "peer-lost", "abort", "rendezvous", "shm-channel",
}

// String names the event kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record: a monotonic timestamp (ns since the rank's
// base) plus a kind and four kind-specific payload fields.
type Event struct {
	TS         int64
	Kind       Kind
	A, B, C, D int64
}

// Tracer is a fixed-size ring buffer of events behind one mutex. When full
// it overwrites the oldest events, so a dump always holds the most recent
// Capacity() records; Dropped() reports how many were overwritten. Record is
// safe for concurrent use (transport readers and the rank goroutine both
// record).
//
// The per-message kinds (KSend, KRecvPost, KMatch) can additionally be
// sampled 1-in-N (SetSample) to bound tracer overhead on the p2p fast path;
// structural events (spans, failures, rendezvous) are always recorded.
type Tracer struct {
	base         time.Time
	baseUnixNano int64
	sample       atomic.Uint64 // 1-in-N divisor for hot kinds; 1 = record all
	keep         atomic.Uint64 // sampling threshold: keep a draw r iff r <= keep

	mu    sync.Mutex
	buf   []Event
	total uint64 // events recorded; the next one goes to buf[total%len(buf)]
}

// NewTracer creates a tracer with the given ring capacity whose timestamps
// are nanoseconds since base. Sampling starts at 1 (record everything);
// Rank.EnableTracer applies the MPH_TRACE_SAMPLE default.
func NewTracer(capacity int, base time.Time) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	t := &Tracer{base: base, baseUnixNano: base.UnixNano(), buf: make([]Event, capacity)}
	t.SetSample(1)
	return t
}

// Capacity returns the ring size in events.
func (t *Tracer) Capacity() int { return len(t.buf) }

// SetSample sets 1-in-N sampling for the per-message hot-path kinds (send,
// recv-post, match): each such event is kept with probability 1/n. n <= 1
// records everything. Other kinds are never sampled. Safe to call
// concurrently with Record.
func (t *Tracer) SetSample(n int) {
	if n < 1 {
		n = 1
	}
	t.sample.Store(uint64(n))
	// The hot path compares the random draw against a precomputed threshold
	// instead of dividing by n: keep r iff r <= MaxUint64/n, which holds with
	// probability 1/n (and always when n is 1).
	t.keep.Store(^uint64(0) / uint64(n))
}

// Sample returns the current 1-in-N sampling divisor (1 = record all).
func (t *Tracer) Sample() int { return int(t.sample.Load()) }

// Record appends an event stamped now. Hot-path kinds are subject to the
// tracer's sampling divisor; sampled-out calls return before touching the
// clock or the lock.
func (t *Tracer) Record(k Kind, a, b, c, d int64) {
	if k <= KMatch && rand.Uint64() > t.keep.Load() {
		return
	}
	t.record(int64(time.Since(t.base)), k, a, b, c, d)
}

// record appends an event with an explicit timestamp (callers that already
// read the clock pass it through). Never sampled.
func (t *Tracer) record(ts int64, k Kind, a, b, c, d int64) {
	t.mu.Lock()
	t.buf[t.total%uint64(len(t.buf))] = Event{TS: ts, Kind: k, A: a, B: b, C: c, D: d}
	t.total++
	t.mu.Unlock()
}

// Span is one open KBegin/KEnd pair. A Span begun on a nil tracer (tracing
// off) records nothing at either end.
type Span struct {
	tr   *Tracer
	a, b int64
}

// Begin records a KBegin event and returns the span its End closes; see
// the KBegin payload fields. Safe on a nil tracer, where it is free.
func (t *Tracer) Begin(a, b, c int64) Span {
	if t != nil {
		t.Record(KBegin, a, b, c, 0)
	}
	return Span{t, a, b}
}

// End records the span's KEnd event.
func (s Span) End() {
	if s.tr != nil {
		s.tr.Record(KEnd, s.a, s.b, 0, 0)
	}
}

// Recorded returns the total number of events recorded since creation
// (events skipped by sampling are not recorded).
func (t *Tracer) Recorded() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many recorded events were overwritten by the ring.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - min(t.total, uint64(len(t.buf)))
}

// Events returns the newest Capacity() events, oldest first. Concurrent
// recorders read the clock before they take the lock, so ring order can
// invert two near-simultaneous stamps; a stable sort by timestamp restores
// chronological order and keeps ring order among equal stamps.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	size := uint64(len(t.buf))
	out := make([]Event, 0, min(t.total, size))
	if t.total <= size {
		out = append(out, t.buf[:t.total]...)
	} else {
		start := t.total % size
		out = append(append(out, t.buf[start:]...), t.buf[:start]...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Meta is the header of a rank's trace dump: who the rank is, which the
// dumping rank fills in, and the tracer's state, which Dump does.
type Meta struct {
	Rank      int
	Size      int
	Component string
	// Host is the rank's host label, for cross-host trace attribution.
	Host string
	// ClockOffsetNS estimates launcher_clock − rank_clock at handshake
	// time; readers add it to BaseUnix to place this rank's events on the
	// launcher's timeline. Zero when no clock sync ran.
	ClockOffsetNS int64
	// BaseUnix is the wall-clock time, in ns, the events' timestamps count
	// from: cmd/mphtrace aligns the dumps of different processes by it.
	BaseUnix int64
	Capacity int
	Recorded uint64
	Dropped  uint64
	// Sample is the 1-in-N divisor the per-message events (send,
	// recv-post, match) were recorded under, so a timeline reader knows
	// each one it shows stands for N.
	Sample int
}

// fields codes m's fields.
func (m *Meta) fields(c *wire.Codec) {
	for _, p := range [...]*int{&m.Rank, &m.Size, &m.Capacity, &m.Sample} {
		wire.Int(c, p)
	}
	for _, p := range [...]*int64{&m.ClockOffsetNS, &m.BaseUnix} {
		wire.Int(c, p)
	}
	wire.Int(c, &m.Recorded)
	wire.Int(c, &m.Dropped)
	c.String(&m.Component)
	c.String(&m.Host)
}

// fields codes e's fields but its kind, which is its record's.
func (e *Event) fields(c *wire.Codec) {
	for _, p := range [...]*int64{&e.TS, &e.A, &e.B, &e.C, &e.D} {
		wire.Int(c, p)
	}
}

// A trace dump is wire records: one meta record, then one record per event,
// whose record kind is its Kind.
const kindMeta = byte(numKinds)

// Dump writes the retained events as a trace dump: meta, completed with the
// tracer's state, then the events in chronological order.
func (t *Tracer) Dump(w io.Writer, meta Meta) error {
	events := t.Events()
	meta.BaseUnix, meta.Capacity, meta.Sample = t.baseUnixNano, t.Capacity(), t.Sample()
	meta.Recorded, meta.Dropped = t.Recorded(), t.Dropped()
	buf := wire.AppendRecord(nil, kindMeta, meta.fields)
	for i := range events {
		buf = wire.AppendRecord(buf, byte(events[i].Kind), events[i].fields)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("perf: trace dump: %w", err)
	}
	return nil
}

// ReadDump reads a trace dump Dump wrote.
func ReadDump(r io.Reader) (Meta, []Event, error) {
	var meta Meta
	var events []Event
	for n := 0; ; n++ {
		kind, body, err := wire.ReadRecord(r)
		switch {
		case err == io.EOF && n > 0:
			return meta, events, nil
		case err == io.EOF:
			return meta, nil, fmt.Errorf("perf: trace dump without a meta record")
		case err != nil:
		case n == 0 && kind == kindMeta:
			err = wire.Decode(body, meta.fields)
		case n > 0 && kind < kindMeta:
			e := Event{Kind: Kind(kind)}
			err = wire.Decode(body, e.fields)
			events = append(events, e)
		default:
			err = fmt.Errorf("%w: a kind %d record", wire.ErrMalformed, kind)
		}
		if err != nil {
			return meta, nil, fmt.Errorf("perf: trace dump, record %d: %w", n, err)
		}
	}
}
