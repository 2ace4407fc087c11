package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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

// String names the event kind as it appears in trace dumps.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString is the inverse of Kind.String; ok is false for unknown
// names. cmd/mphtrace uses it when re-reading dumped event streams.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
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

// Meta is the per-rank header of a dumped event stream.
type Meta struct {
	Rank      int    `json:"rank"`
	Size      int    `json:"size"`
	Component string `json:"component,omitempty"`
	// Host is the rank's host label, for cross-host trace attribution.
	Host string `json:"host,omitempty"`
	// ClockOffsetNS estimates launcher_clock − rank_clock at handshake
	// time; readers add it to BaseUnix to place this rank's events on the
	// launcher's timeline. Zero when no clock sync ran.
	ClockOffsetNS int64 `json:"clock_offset_ns,omitempty"`
}

// metaLine is the first JSONL line of a trace dump: rank identity plus the
// wall-clock base that lets cmd/mphtrace align streams from different
// processes on one timeline. Sample records the 1-in-N divisor in force, so
// readers can scale per-message event counts back up.
type metaLine struct {
	Meta      bool   `json:"meta"`
	Rank      int    `json:"rank"`
	Size      int    `json:"size"`
	Component string `json:"component,omitempty"`
	Host      string `json:"host,omitempty"`
	BaseUnix  int64  `json:"base_unix_ns"`
	ClockOff  int64  `json:"clock_offset_ns,omitempty"`
	Capacity  int    `json:"capacity"`
	Recorded  uint64 `json:"recorded"`
	Dropped   uint64 `json:"dropped"`
	Sample    int    `json:"sample,omitempty"`
}

// eventLine is one dumped event. Zero payload fields are omitted to keep
// the files small; readers treat missing fields as zero.
type eventLine struct {
	T int64  `json:"t"`
	K string `json:"k"`
	A int64  `json:"a,omitempty"`
	B int64  `json:"b,omitempty"`
	C int64  `json:"c,omitempty"`
	D int64  `json:"d,omitempty"`
}

// WriteJSONL dumps the retained events as JSON lines: one meta header line
// followed by one line per event in chronological order.
func (t *Tracer) WriteJSONL(w io.Writer, meta Meta) error {
	events := t.Events()
	header := metaLine{
		Meta:      true,
		Rank:      meta.Rank,
		Size:      meta.Size,
		Component: meta.Component,
		Host:      meta.Host,
		BaseUnix:  t.baseUnixNano,
		ClockOff:  meta.ClockOffsetNS,
		Capacity:  t.Capacity(),
		Recorded:  t.Recorded(),
		Dropped:   t.Dropped(),
	}
	if s := t.Sample(); s > 1 {
		header.Sample = s
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("perf: trace meta: %w", err)
	}
	for _, e := range events {
		line := eventLine{T: e.TS, K: e.Kind.String(), A: e.A, B: e.B, C: e.C, D: e.D}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("perf: trace event: %w", err)
		}
	}
	return bw.Flush()
}

// TraceMeta is a parsed meta header line; see ParseTraceLine. A Sample
// greater than 1 means per-message events (send, recv-post, match) were
// 1-in-Sample sampled when recorded.
type TraceMeta struct {
	Rank      int
	Size      int
	Component string
	Host      string
	BaseUnix  int64
	// ClockOffsetNS estimates launcher_clock − rank_clock; add it to
	// BaseUnix to place this rank's events on the launcher's timeline.
	ClockOffsetNS int64
	Capacity      int
	Recorded      uint64
	Dropped       uint64
	Sample        int
}

// ParseTraceLine parses one line of a WriteJSONL stream. Exactly one of
// meta/event is returned non-nil; blank lines yield (nil, nil, nil).
func ParseTraceLine(line []byte) (*TraceMeta, *Event, error) {
	trimmed := false
	for _, b := range line {
		if b != ' ' && b != '\t' && b != '\r' && b != '\n' {
			trimmed = true
			break
		}
	}
	if !trimmed {
		return nil, nil, nil
	}
	var probe struct {
		Meta bool `json:"meta"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, nil, fmt.Errorf("perf: bad trace line: %w", err)
	}
	if probe.Meta {
		var ml metaLine
		if err := json.Unmarshal(line, &ml); err != nil {
			return nil, nil, fmt.Errorf("perf: bad trace meta: %w", err)
		}
		return &TraceMeta{
			Rank: ml.Rank, Size: ml.Size, Component: ml.Component, Host: ml.Host,
			BaseUnix: ml.BaseUnix, ClockOffsetNS: ml.ClockOff, Capacity: ml.Capacity,
			Recorded: ml.Recorded, Dropped: ml.Dropped, Sample: ml.Sample,
		}, nil, nil
	}
	var el eventLine
	if err := json.Unmarshal(line, &el); err != nil {
		return nil, nil, fmt.Errorf("perf: bad trace event: %w", err)
	}
	kind, ok := KindFromString(el.K)
	if !ok {
		return nil, nil, fmt.Errorf("perf: unknown trace event kind %q", el.K)
	}
	return nil, &Event{TS: el.T, Kind: kind, A: el.A, B: el.B, C: el.C, D: el.D}, nil
}
