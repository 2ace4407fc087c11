// Package perf is the observability layer of the mpi substrate: MPI_T-style
// performance variables plus a low-overhead per-rank event tracer.
//
// Every rank (Env) owns one Rank handle. Counters come in two flavors,
// chosen by where the hot path already holds a lock:
//
//   - Engine-side variables (queue depths, high-water marks, match
//     classification, per-peer arrival accounting) are plain integers owned
//     by the matching engine and mutated under the engine mutex the hot path
//     holds anyway — zero extra synchronization. Snapshot() pulls them
//     through a registered collector that briefly takes that same lock.
//   - Transport- and collective-side variables (wire frames, acks, dials,
//     collective invocation counts and cumulative latency) are atomics,
//     updated on paths whose cost is dominated by syscalls or log-round
//     messaging, where an atomic add is invisible.
//
// Send-side per-peer totals are not counted on the send path at all: an
// eager send is delivered into the destination engine before it returns, so
// "bytes I sent to d" is exactly "bytes d's engine received from me". The
// in-process transport derives sent totals from sibling engines at snapshot
// time; the TCP transport counts frames it writes (a syscall path). The
// exact-match fast path therefore pays only plain increments under an
// already-held lock, keeping tracer-off overhead within the benchmarked
// bound (see BenchmarkTracerOverhead and EXPERIMENTS.md).
package perf

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Environment variables consulted by the substrate's observability hooks.
const (
	// EnvTraceDir, when set, enables the event tracer at Env creation and
	// makes every rank write <dir>/trace.rank<N>.jsonl on close. mphrun
	// -trace=DIR sets it; cmd/mphtrace merges the files.
	EnvTraceDir = "MPH_TRACE_DIR"
	// EnvTraceEvents overrides the tracer ring capacity (default
	// DefaultTraceEvents).
	EnvTraceEvents = "MPH_TRACE_EVENTS"
	// EnvTraceSample overrides the tracer's 1-in-N sampling divisor for the
	// per-message hot-path events (default DefaultTraceSample; 1 records
	// every event). Structural events are never sampled.
	EnvTraceSample = "MPH_TRACE_SAMPLE"
)

// DefaultTraceEvents is the tracer ring capacity when EnvTraceEvents does
// not override it.
const DefaultTraceEvents = 1 << 16

// DefaultTraceSample is the 1-in-N sampling divisor applied to the
// per-message hot-path events (send, recv-post, match) when EnvTraceSample
// does not override it. 16 was chosen to bring tracer-on overhead on the p2p
// fast path under its 25% budget (EXPERIMENTS.md P1: BenchmarkTracerOverhead,
// sampled against off) with a statistically useful event stream left; set
// MPH_TRACE_SAMPLE=1 to record everything when debugging message ordering.
const DefaultTraceSample = 16

// CollOp identifies one collective operation for invocation counting.
type CollOp uint8

// Collective operations tracked per rank: the three the library runs.
const (
	CollBarrier CollOp = iota
	CollBcast
	CollAllreduce
	NumCollOps // count sentinel, not an op
)

var collOpNames = [NumCollOps]string{"barrier", "bcast", "allreduce"}

// String names the collective operation for summaries and traces.
func (op CollOp) String() string {
	if op < NumCollOps {
		return collOpNames[op]
	}
	return "unknown"
}

// CollAlg identifies the algorithm family a collective invocation was routed
// to by the selector (DESIGN.md "Collective algorithms").
type CollAlg uint8

// Algorithm families tracked per collective op. Tree covers the binomial-
// tree shapes (the two-rank pair included); Hier covers the two-level
// host-aware shape (intra-host phase, one leader per host for the
// inter-host phase, local fan-out). A Hier invocation's leader phase
// selects again on the leader sub-communicator, so Hier selections also
// increment Tree.
const (
	AlgTree CollAlg = iota
	AlgHier
	NumCollAlgs // count sentinel, not an algorithm
)

// Phase identifies one MPH handshake phase for trace spans (paper §6 as
// core.handshake runs it: two collectives, then a local derivation). Its
// values follow the CollOps, so a span's A field names either.
type Phase uint8

// Handshake phases, in execution order.
const (
	PhaseRegistry   = Phase(NumCollOps) + iota // registration file load + broadcast
	PhaseSplit                                 // exchange of every rank's executable index
	PhaseComponents                            // local derivation of communicators and layout
	numPhases
)

var phaseNames = [numPhases - PhaseRegistry]string{
	"handshake:registry", "handshake:split", "handshake:components",
}

// CollPhase identifies one phase of a hierarchical (two-level) collective,
// carried in a collective span's B field.
type CollPhase uint8

// Hierarchical collective phases, in execution order: the intra-host
// combine on the fast local links, the leader-only inter-host exchange on
// the slow fabric, and the local fan-out of the result.
const (
	CollPhaseIntra  CollPhase = iota + 1 // intra-host gather/combine
	CollPhaseInter                       // leader-to-leader inter-host exchange
	CollPhaseFanout                      // leader-to-member result fan-out
	numCollPhases
)

var collPhaseNames = [numCollPhases]string{"", "intra", "inter", "fanout"}

// SpanName names what a KBegin/KEnd pair with payload a, b brackets: a
// collective ("barrier"), one phase of a two-level collective
// ("allreduce/intra") or a handshake phase ("handshake:registry").
func SpanName(a, b int64) string {
	switch {
	case a < 0 || a >= int64(numPhases):
		return "unknown"
	case a >= int64(PhaseRegistry):
		return phaseNames[a-int64(PhaseRegistry)]
	case b == 0:
		return collOpNames[a]
	case b > 0 && b < int64(numCollPhases):
		return collOpNames[a] + "/" + collPhaseNames[b]
	}
	return collOpNames[a] + "/unknown"
}

// CollOpName names a collective op id (as carried in trace events).
func CollOpName(id int64) string {
	if id >= 0 && id < int64(NumCollOps) {
		return collOpNames[id]
	}
	return "unknown"
}

// collCounter is one collective op's invocation count, cumulative wall
// time and slowest single invocation.
type collCounter struct {
	count atomic.Uint64
	ns    atomic.Int64
	maxNS atomic.Int64
}

// observe folds one invocation's duration into the counter.
func (c *collCounter) observe(d int64) {
	c.count.Add(1)
	c.ns.Add(d)
	for {
		cur := c.maxNS.Load()
		if d <= cur || c.maxNS.CompareAndSwap(cur, d) {
			break
		}
	}
}

// NetCounters are the TCP transport's wire-level performance variables. All
// fields are atomics updated on syscall-dominated paths; the in-process
// transport leaves them zero.
type NetCounters struct {
	FramesOut atomic.Uint64 // packet frames written
	FramesIn  atomic.Uint64 // packet frames read
	BytesOut  atomic.Uint64 // total bytes written, every frame kind
	BytesIn   atomic.Uint64 // total bytes read
	Dials     atomic.Uint64 // outbound connections established

	// Fault-tolerance counters: retry and failure traffic.
	DialRetries    atomic.Uint64 // dial attempts after the first, per connection
	PeersLost      atomic.Uint64 // world ranks declared dead, clean closes aside
	AbortsOut      atomic.Uint64 // abort frames broadcast by this rank
	AbortsIn       atomic.Uint64 // abort frames received
	FaultsInjected atomic.Uint64 // MPH_FAULT rule firings (testing only)

	// Rendezvous-protocol counters (payloads at or above the eager
	// threshold; DESIGN.md §12).
	RTSOut   atomic.Uint64 // request-to-send frames written
	RTSIn    atomic.Uint64 // request-to-send frames read
	CTSOut   atomic.Uint64 // clear-to-send frames written
	CTSIn    atomic.Uint64 // clear-to-send frames read
	RDataOut atomic.Uint64 // rendezvous payload frames written
	RDataIn  atomic.Uint64 // rendezvous payload frames read

	// Intra-host shared-memory channel counters (DESIGN.md §12): rendezvous
	// payload frames that moved over the per-peer Unix-domain payload
	// channel instead of the TCP stream. Shm frames and bytes are also
	// counted in RData*/Bytes*, so totals reconcile regardless of channel.
	ShmChannels  atomic.Uint64 // local payload channels successfully established
	ShmRDataOut  atomic.Uint64 // rendezvous payload frames written over the local channel
	ShmRDataIn   atomic.Uint64 // rendezvous payload frames read over the local channel
	ShmBytesOut  atomic.Uint64 // bytes written over the local channel
	ShmBytesIn   atomic.Uint64 // bytes read over the local channel
	ShmFallbacks atomic.Uint64 // transfers that fell back to TCP (negotiation, dial, or write failure)
}

// EngineSnap is the matching engine's contribution to a Snapshot, copied
// under the engine mutex by the registered collector.
type EngineSnap struct {
	UMQDepth     int `json:"umq_depth"`
	UMQHighWater int `json:"umq_high_water"`
	PRQDepth     int `json:"prq_depth"`
	PRQHighWater int `json:"prq_high_water"`

	// Match classification: where the message was when it matched.
	MatchesUnexpected uint64 `json:"matches_unexpected"`
	MatchesPosted     uint64 `json:"matches_posted"`

	// Per-source-world-rank arrival accounting.
	RecvMsgs  []uint64 `json:"recv_msgs_by_peer"`
	RecvBytes []uint64 `json:"recv_bytes_by_peer"`
}

// CollSnap is one collective op's counters in a Snapshot. Count and Nanos
// cover each invocation; Tree counts every algorithm-selection decision
// that picked a flat tree, including the one a two-level collective's
// leader phase makes, so Tree may exceed Count.
type CollSnap struct {
	Count uint64 `json:"count"`
	Nanos int64  `json:"nanos"`
	Tree  uint64 `json:"tree,omitempty"`
	// Ring is always zero: no collective has a ring algorithm. The field
	// stays because the benchmark harness reads it as mpi.coll_ring.
	Ring uint64 `json:"ring,omitempty"`
	// Hier counts invocations routed to the two-level host-aware algorithm;
	// its sub-communicator phases select a tree again, so Hier overlaps
	// Tree rather than partitioning Count with it.
	Hier uint64 `json:"hier,omitempty"`
	// MaxNanos is the slowest single invocation — a rank whose
	// max dwarfs its peers' was waiting on a straggler (or was one).
	MaxNanos int64 `json:"max_nanos,omitempty"`
}

// NetSnap is the wire counters' value in a Snapshot.
type NetSnap struct {
	FramesOut uint64 `json:"frames_out"`
	FramesIn  uint64 `json:"frames_in"`
	BytesOut  uint64 `json:"bytes_out"`
	BytesIn   uint64 `json:"bytes_in"`
	Dials     uint64 `json:"dials"`

	DialRetries    uint64 `json:"dial_retries,omitempty"`
	PeersLost      uint64 `json:"peers_lost,omitempty"`
	AbortsOut      uint64 `json:"aborts_out,omitempty"`
	AbortsIn       uint64 `json:"aborts_in,omitempty"`
	FaultsInjected uint64 `json:"faults_injected,omitempty"`

	RTSOut   uint64 `json:"rts_out,omitempty"`
	RTSIn    uint64 `json:"rts_in,omitempty"`
	CTSOut   uint64 `json:"cts_out,omitempty"`
	CTSIn    uint64 `json:"cts_in,omitempty"`
	RDataOut uint64 `json:"rdata_out,omitempty"`
	RDataIn  uint64 `json:"rdata_in,omitempty"`

	ShmChannels  uint64 `json:"shm_channels,omitempty"`
	ShmRDataOut  uint64 `json:"shm_rdata_out,omitempty"`
	ShmRDataIn   uint64 `json:"shm_rdata_in,omitempty"`
	ShmBytesOut  uint64 `json:"shm_bytes_out,omitempty"`
	ShmBytesIn   uint64 `json:"shm_bytes_in,omitempty"`
	ShmFallbacks uint64 `json:"shm_fallbacks,omitempty"`
}

// TraceSnap reports the tracer's state in a Snapshot.
type TraceSnap struct {
	Enabled  bool   `json:"enabled"`
	Capacity int    `json:"capacity,omitempty"`
	Recorded uint64 `json:"recorded,omitempty"`
	Dropped  uint64 `json:"dropped,omitempty"`
	Sample   int    `json:"sample,omitempty"` // 1-in-N divisor for per-message events
}

// Snapshot is one rank's performance variables at a point in time. It is
// the typed unit a rank's session reports carry, the launcher's job view and
// /rank/R/perf serve, and mphrun's summary reads.
type Snapshot struct {
	WorldRank int    `json:"world_rank"`
	WorldSize int    `json:"world_size"`
	Component string `json:"component,omitempty"`

	// Host and PID identify the OS process behind the rank, so a report is
	// attributable without out-of-band context.
	Host string `json:"host,omitempty"`
	PID  int    `json:"pid,omitempty"`

	// PeakRSSKB is the process's resident-set high-water mark (VmHWM) in
	// KiB; 0 where /proc is not available. In-process worlds report the
	// one shared process on every rank.
	PeakRSSKB int64 `json:"peak_rss_kb,omitempty"`

	// GCCycles and AllocBytes are the process's completed garbage-collection
	// cycles and cumulative heap allocation (runtime/metrics: no
	// stop-the-world): a steady-state period that allocates nothing shows as
	// a job that ends with GCCycles 0. Shared like PeakRSSKB in-process.
	GCCycles   uint64 `json:"gc_cycles,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`

	// CapturedUnixNS is the wall-clock capture time on the rank's own
	// clock; consumers computing rates difference it between reports.
	CapturedUnixNS int64 `json:"captured_unix_ns,omitempty"`

	// ClockOffsetNS estimates launcher_clock − rank_clock (add it to a
	// rank-local wall timestamp to land on the launcher's timeline), with
	// ClockErrBoundNS the half-RTT uncertainty of the estimate. Zero when
	// no clock sync ran (in-process worlds, no telemetry channel).
	ClockOffsetNS   int64 `json:"clock_offset_ns,omitempty"`
	ClockErrBoundNS int64 `json:"clock_err_bound_ns,omitempty"`

	Engine EngineSnap `json:"engine"`

	// Per-destination-world-rank send accounting (derived from receiver
	// engines for the in-process transport, counted at the wire for TCP).
	SentMsgs  []uint64 `json:"sent_msgs_by_peer"`
	SentBytes []uint64 `json:"sent_bytes_by_peer"`

	TotalSentMsgs  uint64 `json:"total_sent_msgs"`
	TotalSentBytes uint64 `json:"total_sent_bytes"`
	TotalRecvMsgs  uint64 `json:"total_recv_msgs"`
	TotalRecvBytes uint64 `json:"total_recv_bytes"`

	Collectives map[string]CollSnap `json:"collectives,omitempty"`
	CommSplits  uint64              `json:"comm_splits"`
	CommDups    uint64              `json:"comm_dups"`
	CommJoins   uint64              `json:"comm_joins"`

	Net   NetSnap   `json:"net"`
	Trace TraceSnap `json:"trace"`
}

// CollNanos sums the cumulative wall time of every collective op.
func (s *Snapshot) CollNanos() int64 {
	var total int64
	for _, c := range s.Collectives {
		total += c.Nanos
	}
	return total
}

// peakRSSKB reads VmHWM from /proc/self/status. It is not getrusage's
// ru_maxrss, which across an exec inherits the spawning process's peak. The
// file comes in with one read(2) into a buffer on the stack and the line is
// parsed by hand: every report pays this call, in a rank that never runs a
// collection, so it keeps nothing but the path's C string.
func peakRSSKB() int64 {
	fd, err := syscall.Open("/proc/self/status", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return 0 // not linux
	}
	defer syscall.Close(fd) //nolint:errcheck // read-only; nothing to flush
	var buf [4096]byte
	// A raw read, not syscall.Read, whose race-detector hook would move buf
	// to the heap under -race.
	n, _, e := syscall.Syscall(syscall.SYS_READ, uintptr(fd), uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)))
	if e != 0 {
		return 0
	}
	_, rest, _ := bytes.Cut(buf[:n], []byte("\nVmHWM:"))
	var kb int64
	for _, b := range bytes.TrimLeft(rest, " \t") {
		if b < '0' || b > '9' {
			break
		}
		kb = 10*kb + int64(b-'0')
	}
	return kb
}

// heapCounters reads the collector's cycle count and the cumulative bytes
// allocated; both metrics are as old as runtime/metrics itself. It stays on
// runtime/metrics, not runtime.ReadMemStats: a build reading MemStats
// instead peaked 0.39 MB higher per rank on the benchmark's launch_wide
// workload (3.77 against 3.38–3.39 MB, two 20 s runs a side, 2-vCPU VM).
func heapCounters() (gcCycles, allocBytes uint64) {
	s := [2]metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// Rank is one rank's performance-variable handle, shared by the engine, the
// transport, the collectives, and the MPH layer above them.
type Rank struct {
	worldRank int
	worldSize int
	base      time.Time
	pid       int

	component  atomic.Pointer[string]
	host       atomic.Pointer[string]
	tracer     atomic.Pointer[Tracer]
	clockOff   atomic.Int64
	clockBound atomic.Int64

	coll    [NumCollOps]collCounter
	collAlg [NumCollOps][NumCollAlgs]atomic.Uint64

	splits atomic.Uint64
	dups   atomic.Uint64
	joins  atomic.Uint64

	// Net is exported so the TCP transport updates it directly.
	Net NetCounters

	mu      sync.Mutex
	engSnap func() EngineSnap
	sent    func() (msgs, bytes []uint64)
}

// NewRank creates the handle for one world rank.
func NewRank(worldRank, worldSize int) *Rank {
	return &Rank{worldRank: worldRank, worldSize: worldSize, base: time.Now(), pid: os.Getpid()}
}

// Now returns nanoseconds since the rank's monotonic base; trace event
// timestamps share it.
func (r *Rank) Now() int64 { return int64(time.Since(r.base)) }

// SetComponent records the MPH component name(s) covering this rank; the
// handshake calls it so summaries group ranks by component.
func (r *Rank) SetComponent(name string) { r.component.Store(&name) }

// ComponentName returns the recorded component name, or "".
func (r *Rank) ComponentName() string {
	if p := r.component.Load(); p != nil {
		return *p
	}
	return ""
}

// SetHost records the host label this rank runs on; the transport calls it
// once the launcher-assigned placement is known.
func (r *Rank) SetHost(host string) { r.host.Store(&host) }

// Host returns the recorded host label, or "".
func (r *Rank) Host() string {
	if p := r.host.Load(); p != nil {
		return *p
	}
	return ""
}

// SetClockOffset records the NTP-style clock-sync result against the
// launcher: offset estimates launcher_clock − rank_clock, bound is the
// half-RTT uncertainty. Snapshots and trace dumps carry both so consumers
// can shift this rank's timestamps onto the launcher's timeline.
func (r *Rank) SetClockOffset(offset, bound int64) {
	r.clockOff.Store(offset)
	r.clockBound.Store(bound)
}

// ClockOffset returns the recorded clock-sync result (zero, zero when no
// sync ran).
func (r *Rank) ClockOffset() (offset, bound int64) {
	return r.clockOff.Load(), r.clockBound.Load()
}

// SetEngineCollector registers the engine's snapshot function.
func (r *Rank) SetEngineCollector(fn func() EngineSnap) {
	r.mu.Lock()
	r.engSnap = fn
	r.mu.Unlock()
}

// SetSentCollector registers the transport's per-peer sent-totals function.
func (r *Rank) SetSentCollector(fn func() (msgs, bytes []uint64)) {
	r.mu.Lock()
	r.sent = fn
	r.mu.Unlock()
}

// EnableTracer installs a fresh event tracer with the given ring capacity
// (DefaultTraceEvents if capacity <= 0) and returns it. The caller must
// install it before traffic starts; the hot paths cache the pointer.
//
// The per-message sampling divisor is resolved from EnvTraceSample, falling
// back to DefaultTraceSample when unset, unparsable, or nonpositive — jobs
// that enable tracing get the low-overhead sampled stream unless they ask
// for full fidelity with MPH_TRACE_SAMPLE=1.
func (r *Rank) EnableTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	t := NewTracer(capacity, r.base)
	sample := DefaultTraceSample
	if v := os.Getenv(EnvTraceSample); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			sample = n
		}
	}
	t.SetSample(sample)
	r.tracer.Store(t)
	return t
}

// Tracer returns the installed tracer, or nil when tracing is off.
func (r *Rank) Tracer() *Tracer { return r.tracer.Load() }

// CollEnter marks entry into a collective and returns its start timestamp.
func (r *Rank) CollEnter(op CollOp) (startNS int64) {
	startNS = r.Now()
	if tr := r.Tracer(); tr != nil {
		tr.record(startNS, KBegin, int64(op), 0, 0, 0)
	}
	return startNS
}

// CollExit marks exit from a collective entered with CollEnter.
func (r *Rank) CollExit(op CollOp, startNS int64) {
	end := r.Now()
	if tr := r.Tracer(); tr != nil {
		tr.record(end, KEnd, int64(op), 0, 0, 0)
	}
	r.coll[op].observe(end - startNS)
}

// CollAlgo records which algorithm family the size-based selector routed one
// collective invocation to. It is called at every selection point, including
// the leader phase of a two-level collective.
func (r *Rank) CollAlgo(op CollOp, alg CollAlg) {
	if op < NumCollOps && alg < NumCollAlgs {
		r.collAlg[op][alg].Add(1)
	}
}

// CountSplit records a communicator split (also traced).
func (r *Rank) CountSplit(color int, newSize int) {
	r.splits.Add(1)
	if tr := r.Tracer(); tr != nil {
		tr.Record(KCommSplit, int64(color), int64(newSize), 0, 0)
	}
}

// CountDup records a communicator duplication (also traced).
func (r *Rank) CountDup() {
	r.dups.Add(1)
	if tr := r.Tracer(); tr != nil {
		tr.Record(KCommDup, 0, 0, 0, 0)
	}
}

// CountJoin records a group-based communicator creation (MPH_comm_join's
// substrate; also traced).
func (r *Rank) CountJoin(size int) {
	r.joins.Add(1)
	if tr := r.Tracer(); tr != nil {
		tr.Record(KCommJoin, int64(size), 0, 0, 0)
	}
}

// BeginPhase opens a handshake-phase span; its End closes it. With tracing
// off both are free.
func (r *Rank) BeginPhase(p Phase) Span { return r.Tracer().Begin(int64(p), 0, 0) }

// Snapshot captures every performance variable of the rank. It is safe to
// call concurrently with traffic; engine variables are copied under the
// engine lock, everything else is read atomically.
func (r *Rank) Snapshot() Snapshot {
	r.mu.Lock()
	engSnap, sent := r.engSnap, r.sent
	r.mu.Unlock()

	s := Snapshot{
		WorldRank:      r.worldRank,
		WorldSize:      r.worldSize,
		Component:      r.ComponentName(),
		Host:           r.Host(),
		PID:            r.pid,
		PeakRSSKB:      peakRSSKB(),
		CapturedUnixNS: time.Now().UnixNano(),
	}
	s.ClockOffsetNS, s.ClockErrBoundNS = r.ClockOffset()
	s.GCCycles, s.AllocBytes = heapCounters()
	if engSnap != nil {
		s.Engine = engSnap()
	}
	if s.Engine.RecvMsgs == nil {
		s.Engine.RecvMsgs = make([]uint64, r.worldSize)
		s.Engine.RecvBytes = make([]uint64, r.worldSize)
	}
	if sent != nil {
		s.SentMsgs, s.SentBytes = sent()
	}
	if s.SentMsgs == nil {
		s.SentMsgs = make([]uint64, r.worldSize)
		s.SentBytes = make([]uint64, r.worldSize)
	}
	for i := range s.SentMsgs {
		s.TotalSentMsgs += s.SentMsgs[i]
		s.TotalSentBytes += s.SentBytes[i]
	}
	for i := range s.Engine.RecvMsgs {
		s.TotalRecvMsgs += s.Engine.RecvMsgs[i]
		s.TotalRecvBytes += s.Engine.RecvBytes[i]
	}

	for op := CollOp(0); op < NumCollOps; op++ {
		count := r.coll[op].count.Load()
		tree := r.collAlg[op][AlgTree].Load()
		hier := r.collAlg[op][AlgHier].Load()
		if count == 0 && tree == 0 && hier == 0 {
			continue
		}
		if s.Collectives == nil {
			s.Collectives = make(map[string]CollSnap)
		}
		s.Collectives[op.String()] = CollSnap{
			Count:    count,
			Nanos:    r.coll[op].ns.Load(),
			Tree:     tree,
			Hier:     hier,
			MaxNanos: r.coll[op].maxNS.Load(),
		}
	}
	s.CommSplits = r.splits.Load()
	s.CommDups = r.dups.Load()
	s.CommJoins = r.joins.Load()

	s.Net = NetSnap{
		FramesOut: r.Net.FramesOut.Load(),
		FramesIn:  r.Net.FramesIn.Load(),
		BytesOut:  r.Net.BytesOut.Load(),
		BytesIn:   r.Net.BytesIn.Load(),
		Dials:     r.Net.Dials.Load(),

		DialRetries:    r.Net.DialRetries.Load(),
		PeersLost:      r.Net.PeersLost.Load(),
		AbortsOut:      r.Net.AbortsOut.Load(),
		AbortsIn:       r.Net.AbortsIn.Load(),
		FaultsInjected: r.Net.FaultsInjected.Load(),

		RTSOut:   r.Net.RTSOut.Load(),
		RTSIn:    r.Net.RTSIn.Load(),
		CTSOut:   r.Net.CTSOut.Load(),
		CTSIn:    r.Net.CTSIn.Load(),
		RDataOut: r.Net.RDataOut.Load(),
		RDataIn:  r.Net.RDataIn.Load(),

		ShmChannels:  r.Net.ShmChannels.Load(),
		ShmRDataOut:  r.Net.ShmRDataOut.Load(),
		ShmRDataIn:   r.Net.ShmRDataIn.Load(),
		ShmBytesOut:  r.Net.ShmBytesOut.Load(),
		ShmBytesIn:   r.Net.ShmBytesIn.Load(),
		ShmFallbacks: r.Net.ShmFallbacks.Load(),
	}
	if tr := r.Tracer(); tr != nil {
		s.Trace = TraceSnap{
			Enabled:  true,
			Capacity: tr.Capacity(),
			Recorded: tr.Recorded(),
			Dropped:  tr.Dropped(),
			Sample:   tr.Sample(),
		}
	}
	return s
}
