package mpi

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"mph/internal/mpi/perf"
)

// Transport moves a packet to the engine of another world rank. The
// in-process World posts directly into the destination's engine; the TCP
// transport serializes the packet onto a per-peer ordered stream.
//
// Implementations must preserve per-(sender, destination) ordering.
type Transport interface {
	// Deliver sends p to the engine owned by world rank dst. Delivery to
	// the local rank is allowed. p.Data is the sender's own slice: Deliver
	// only reads it, and only until it returns — the TCP transport writes a
	// rendezvous payload straight from it and copies an eager one into its
	// frame, a delivery within the process copies it into a pooled packet —
	// so no send makes a defensive copy or a heap record (DESIGN.md §12).
	Deliver(dst int, p Packet) error
	// Close releases transport resources. Sends after Close fail.
	Close() error
}

// abortBroadcaster is the optional transport capability behind Abort: a
// transport that can reach every peer implements it to propagate a job-wide
// abort. The in-process transport aborts sibling engines directly; the TCP
// transport sends abort frames.
type abortBroadcaster interface {
	// BroadcastAbort tells every reachable peer that origin aborted the job
	// with code. Best effort: unreachable peers are skipped.
	BroadcastAbort(code, origin int)
}

// Env is the process-local endpoint of a job: this rank's identity within
// the world, its receive engine, and the transport used to reach peers.
// Every communicator held by a rank shares one Env.
type Env struct {
	worldRank int
	worldSize int
	eng       *engine
	tr        Transport

	pv     *perf.Rank
	tracer *perf.Tracer // cached for the send-path nil check; nil = off
	// flushMu serializes trace dumps: the abort and peer-loss paths flush
	// early so a crashed job keeps its post-mortem, and a later clean Close
	// rewrites the file with the complete ring.
	flushMu sync.Mutex

	// hosts maps world rank -> host label, published by the transport once
	// the rendezvous book is known. Atomic because transports learn the
	// topology on their own goroutine while ranks may already be asking.
	hosts atomic.Pointer[[]string]
}

// NewEnv assembles an environment from its parts. It is exported for
// transport packages (tcpnet); in-process users should use World instead.
// When perf.EnvTraceDir is set, event tracing is enabled from the start
// with a ring of perf.EnvTraceEvents events (perf.DefaultTraceEvents if
// unset).
func NewEnv(worldRank, worldSize int, tr Transport) *Env {
	e := &Env{
		worldRank: worldRank,
		worldSize: worldSize,
		eng:       newEngine(worldSize),
		tr:        tr,
		pv:        perf.NewRank(worldRank, worldSize),
	}
	e.pv.SetEngineCollector(e.eng.perfSnap)
	if os.Getenv(perf.EnvTraceDir) != "" {
		capacity := 0
		if v := os.Getenv(perf.EnvTraceEvents); v != "" {
			capacity, _ = strconv.Atoi(v)
		}
		e.EnableTracing(capacity)
	}
	return e
}

// Perf returns the rank's performance-variable handle.
func (e *Env) Perf() *perf.Rank { return e.pv }

// EnableTracing installs an event tracer with the given ring capacity
// (perf.DefaultTraceEvents if capacity <= 0) and returns it. It must be
// called before traffic starts: the hot paths cache the tracer pointer with
// a plain nil check, which is what keeps tracer-off overhead at zero.
func (e *Env) EnableTracing(capacity int) *perf.Tracer {
	t := e.pv.EnableTracer(capacity)
	e.tracer = t
	e.eng.setTracer(t)
	return t
}

// flushObservability writes the trace file requested through
// perf.EnvTraceDir before the engine is torn down. Besides the clean Close
// path it also runs on abort and peer loss — a crashed job loses exactly the
// events the post-mortem needs otherwise — so the write is idempotent
// (Create truncates) and a later flush with more events simply rewrites the
// file. Failures are reported to stderr: diagnostics must never fail the
// job.
func (e *Env) flushObservability() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	dir := os.Getenv(perf.EnvTraceDir)
	tr := e.pv.Tracer()
	if dir == "" || tr == nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("trace.rank%04d.jsonl", e.worldRank))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpi: perf trace dump: %v\n", err)
		return
	}
	offset, _ := e.pv.ClockOffset()
	meta := perf.Meta{
		Rank:          e.worldRank,
		Size:          e.worldSize,
		Component:     e.pv.ComponentName(),
		Host:          e.pv.Host(),
		ClockOffsetNS: offset,
	}
	if err := tr.WriteJSONL(f, meta); err != nil {
		fmt.Fprintf(os.Stderr, "mpi: perf trace dump: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mpi: perf trace dump: %v\n", err)
	}
}

// SetHosts publishes the job's host topology: hosts[r] is the host label of
// world rank r. Transports call it once the rendezvous address book is
// known; a nil or wrongly-sized slice is ignored. The slice is retained —
// callers must not mutate it afterwards.
func (e *Env) SetHosts(hosts []string) {
	if len(hosts) != e.worldSize {
		return
	}
	e.hosts.Store(&hosts)
}

// HostOf returns the host label of world rank r, or "" when the topology is
// unknown (single-host transports, or before the transport published it) or
// r is out of range.
func (e *Env) HostOf(r int) string {
	p := e.hosts.Load()
	if p == nil || r < 0 || r >= len(*p) {
		return ""
	}
	return (*p)[r]
}

// Post injects an incoming packet into this rank's engine. It is the
// receive-side hook for transports; the engine owns the packet and its
// payload from here on (transports post packets of their PacketPool), a
// rendezvous placeholder by a hold of its own on the record.
func (e *Env) Post(p *Packet) error {
	return e.eng.post(p)
}

// Abort takes the whole job down: the abort is broadcast to every reachable
// peer (when the transport supports it) and this rank's pending and future
// operations fail with an *AbortError wrapping ErrAborted. It corresponds
// to MPI_Abort. Safe to call more than once; only the first abort's code is
// observed locally.
func (e *Env) Abort(code int) {
	if b, ok := e.tr.(abortBroadcaster); ok {
		b.BroadcastAbort(code, e.worldRank)
	}
	e.abortLocal(code, e.worldRank)
}

// AbortDelivered is the receive-side hook for transports: it applies an
// abort that arrived over the wire without rebroadcasting it (the origin
// already told everyone).
func (e *Env) AbortDelivered(code, origin int) {
	e.abortLocal(code, origin)
}

// abortLocal fails the engine with the typed abort error and records the
// event for the tracer.
func (e *Env) abortLocal(code, origin int) {
	if tr := e.tracer; tr != nil {
		tr.Record(perf.KAbort, int64(code), int64(origin), 0, 0)
	}
	e.eng.abort(&AbortError{Code: code, Origin: origin})
	// Aborting processes rarely reach Close; dump the post-mortem now (the
	// abort event above is already in the ring).
	e.flushObservability()
}

// PeerLost is the receive-side hook the transport calls when a world rank
// is declared dead: operations that can only be satisfied by that rank fail
// with *ErrPeerLost, traffic among surviving ranks continues.
func (e *Env) PeerLost(rank int, cause error) {
	if tr := e.tracer; tr != nil {
		tr.Record(perf.KPeerLost, int64(rank), 0, 0, 0)
	}
	e.eng.peerLost(rank, cause)
	// Survivors usually keep running, but the job may be about to unwind on
	// *ErrPeerLost without a clean Close; checkpoint the dumps now. A later
	// clean Close rewrites them with the complete counters.
	e.flushObservability()
}

// PeerExited is PeerLost for a rank that closed cleanly: the same receives
// fail, but a job's normal end is no post-mortem, so nothing is traced or
// dumped.
func (e *Env) PeerExited(rank int, cause error) { e.eng.peerLost(rank, cause) }

// Close flushes any requested observability dumps, then shuts down the
// engine and the transport.
func (e *Env) Close() error {
	e.flushObservability()
	e.eng.close()
	return e.tr.Close()
}

// inprocPooledPayload is the largest payload buffer the in-process
// transport recycles: the TCP transport's default eager threshold. A larger
// message gets a buffer of its own, which a plain Recv hands on uncopied.
const inprocPooledPayload = 64 << 10

// inprocTransport delivers directly into sibling engines within one OS
// process, each through that rank's own packet pool.
type inprocTransport struct {
	engines []*engine
	pools   []*PacketPool
}

func (t *inprocTransport) Deliver(dst int, p Packet) error {
	if dst < 0 || dst >= len(t.engines) {
		return ErrRank
	}
	return t.engines[dst].post(t.pools[dst].Copy(p))
}

func (t *inprocTransport) Close() error { return nil }

// BroadcastAbort aborts every sibling engine in the process. The world
// shares one address space, so "broadcast" is a direct call; engines that
// already stopped ignore it.
func (t *inprocTransport) BroadcastAbort(code, origin int) {
	for rank, eng := range t.engines {
		if rank == origin {
			continue // the origin's Env aborts its own engine after the broadcast
		}
		eng.abort(&AbortError{Code: code, Origin: origin})
	}
}
