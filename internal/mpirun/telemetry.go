package mpirun

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"mph/internal/mpi/perf"
)

// stacksTimeout bounds how long /rank/R/stacks waits for the rank's answer:
// a rank that is stopped or wedged is reported, not waited on.
const stacksTimeout = 5 * time.Second

// DefaultStaleAfter is how long a live (non-final) rank may go without a
// report before the job view marks it stale. Reporting ranks push at their
// configured interval; several missed intervals on top of this floor means
// the rank is hung, partitioned, or dead.
const DefaultStaleAfter = 15 * time.Second

// rankReport is the aggregator's state for one reporting rank: the latest
// snapshot, the previous one for rate derivation, and receipt bookkeeping.
type rankReport struct {
	snap     perf.Snapshot
	seq      uint64
	final    bool
	received time.Time
	prev     *perf.Snapshot
	prevAt   time.Time
}

// RankStatus is one rank's row of the live job view.
type RankStatus struct {
	Rank      int    `json:"rank"`
	Component string `json:"component,omitempty"`
	Host      string `json:"host,omitempty"`
	PID       int    `json:"pid,omitempty"`
	Final     bool   `json:"final"`
	Stale     bool   `json:"stale"`
	// LastReportAgeMS is how long ago the latest report arrived,
	// launcher clock.
	LastReportAgeMS int64 `json:"last_report_age_ms"`

	SentMsgs  uint64 `json:"sent_msgs"`
	SentBytes uint64 `json:"sent_bytes"`
	RecvMsgs  uint64 `json:"recv_msgs"`
	RecvBytes uint64 `json:"recv_bytes"`

	// Derived rates over the window between the two most recent reports
	// (zero until a second report arrives, or after the final report).
	SentMsgsPerSec  float64 `json:"sent_msgs_per_sec,omitempty"`
	SentBytesPerSec float64 `json:"sent_bytes_per_sec,omitempty"`
	RecvMsgsPerSec  float64 `json:"recv_msgs_per_sec,omitempty"`
	RecvBytesPerSec float64 `json:"recv_bytes_per_sec,omitempty"`

	ClockOffsetNS   int64  `json:"clock_offset_ns,omitempty"`
	ClockErrBoundNS int64  `json:"clock_err_bound_ns,omitempty"`
	CollNanos       int64  `json:"coll_nanos,omitempty"`
	PeakRSSKB       int64  `json:"peak_rss_kb,omitempty"`
	GCCycles        uint64 `json:"gc_cycles,omitempty"`
}

// JobView is the aggregator's merged, job-wide view of every rank report.
type JobView struct {
	WorldSize int `json:"world_size"`
	Reporting int `json:"reporting"`
	Finals    int `json:"finals"`

	TotalSentMsgs  uint64 `json:"total_sent_msgs"`
	TotalSentBytes uint64 `json:"total_sent_bytes"`
	TotalRecvMsgs  uint64 `json:"total_recv_msgs"`
	TotalRecvBytes uint64 `json:"total_recv_bytes"`

	// Reconciled reports that every rank of the world has sent its final
	// report and the job-wide totals agree: messages and bytes sent equal
	// messages and bytes received. Mid-run it is false.
	Reconciled bool `json:"reconciled"`

	Ranks []RankStatus `json:"ranks"`
}

// Telemetry is the launcher-side telemetry plane: an aggregator merging the
// perf.Snapshot reports ranks push over their sessions (LaunchSpec.Telemetry
// hands it to the rendezvous) into a live job view, and an http.Handler
// serving the view as Prometheus /metrics and JSON /status, and a rank's own
// report and goroutine stacks under /rank/R/.
type Telemetry struct {
	size       int
	every      time.Duration
	staleAfter time.Duration

	mu      sync.Mutex
	reports map[int]*rankReport
	stacks  func(rank int, timeout time.Duration) (string, error) // the running job's asker; nil outside Launch
}

// NewTelemetry makes the aggregator for a world of the given size, whose
// ranks are to report every `every` while they run (0 = only their final
// report, at exit).
func NewTelemetry(size int, every time.Duration) (*Telemetry, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpirun: telemetry for world of %d", size)
	}
	return &Telemetry{size: size, every: every, staleAfter: DefaultStaleAfter, reports: make(map[int]*rankReport)}, nil
}

// Ingest merges one rank report into the aggregate, keyed by world rank.
// Reports carry a per-rank sequence number; one arriving out of order
// (an older seq than the latest merged) is dropped, so a delayed periodic
// report can never overwrite the final one.
func (t *Telemetry) Ingest(rank int, snap perf.Snapshot, seq uint64, final bool, at time.Time) {
	if rank < 0 || rank >= t.size {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.reports[rank]
	if !ok {
		t.reports[rank] = &rankReport{snap: snap, seq: seq, final: final, received: at}
		return
	}
	if seq < r.seq {
		return
	}
	prev, prevAt := r.snap, r.received
	r.prev, r.prevAt = &prev, prevAt
	r.snap, r.seq, r.received = snap, seq, at
	r.final = r.final || final
}

// View returns the merged job view as of now.
func (t *Telemetry) View() JobView { return t.viewAt(time.Now()) }

// viewAt builds the job view against an explicit clock (tests pin it).
func (t *Telemetry) viewAt(now time.Time) JobView {
	t.mu.Lock()
	defer t.mu.Unlock()
	view := JobView{WorldSize: t.size}
	ranks := make([]int, 0, len(t.reports))
	for r := range t.reports {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, rk := range ranks {
		r := t.reports[rk]
		s := &r.snap
		rs := RankStatus{
			Rank:            rk,
			Component:       s.Component,
			Host:            s.Host,
			PID:             s.PID,
			Final:           r.final,
			Stale:           !r.final && now.Sub(r.received) > t.staleAfter,
			LastReportAgeMS: now.Sub(r.received).Milliseconds(),
			SentMsgs:        s.TotalSentMsgs,
			SentBytes:       s.TotalSentBytes,
			RecvMsgs:        s.TotalRecvMsgs,
			RecvBytes:       s.TotalRecvBytes,
			ClockOffsetNS:   s.ClockOffsetNS,
			ClockErrBoundNS: s.ClockErrBoundNS,
			CollNanos:       s.CollNanos(),
			PeakRSSKB:       s.PeakRSSKB,
			GCCycles:        s.GCCycles,
		}
		if r.prev != nil && !r.final {
			if dt := r.received.Sub(r.prevAt).Seconds(); dt > 0 {
				rs.SentMsgsPerSec = float64(s.TotalSentMsgs-r.prev.TotalSentMsgs) / dt
				rs.SentBytesPerSec = float64(s.TotalSentBytes-r.prev.TotalSentBytes) / dt
				rs.RecvMsgsPerSec = float64(s.TotalRecvMsgs-r.prev.TotalRecvMsgs) / dt
				rs.RecvBytesPerSec = float64(s.TotalRecvBytes-r.prev.TotalRecvBytes) / dt
			}
		}
		view.Ranks = append(view.Ranks, rs)
		view.Reporting++
		if r.final {
			view.Finals++
		}
		view.TotalSentMsgs += rs.SentMsgs
		view.TotalSentBytes += rs.SentBytes
		view.TotalRecvMsgs += rs.RecvMsgs
		view.TotalRecvBytes += rs.RecvBytes
	}
	view.Reconciled = view.Finals == view.WorldSize &&
		view.TotalSentMsgs == view.TotalRecvMsgs && view.TotalSentBytes == view.TotalRecvBytes
	return view
}

// ingestReport is the rendezvous's Ingest: it decodes one report a rank's
// session carried, once, fills in the host the rank registered when the
// snapshot names none, and merges it. A report that does not decode is
// dropped.
func (t *Telemetry) ingestReport(rank int, host string, report []byte, seq uint64, final bool, at time.Time) {
	var snap perf.Snapshot
	if snap.UnmarshalBinary(report) != nil {
		return
	}
	if snap.Host == "" {
		snap.Host = host
	}
	t.Ingest(rank, snap, seq, final, at)
}

// Snapshots returns the latest snapshot of every reporting rank, sorted by
// world rank. Once Launch has returned these include every final report a
// rank sent: what mphrun -stats summarizes.
func (t *Telemetry) Snapshots() []perf.Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]perf.Snapshot, 0, len(t.reports))
	for _, r := range t.reports {
		out = append(out, r.snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WorldRank < out[j].WorldRank })
	return out
}

// setStacks hands the aggregator the running job's stacks asker (Launch's
// rendezvous); nil takes it back.
func (t *Telemetry) setStacks(ask func(rank int, timeout time.Duration) (string, error)) {
	t.mu.Lock()
	t.stacks = ask
	t.mu.Unlock()
}

// Handler returns the launcher's job-telemetry HTTP surface:
//
//	/metrics         Prometheus text exposition of the job view
//	/status          the JobView as JSON (per-rank table, ages, rates)
//	/rank/R/perf     rank R's latest report, as JSON
//	/rank/R/stacks   rank R's goroutine dump, asked over its session
//	/debug/pprof/    net/http/pprof for the launcher process itself
//
// A rank outside the world is a 404; so is a perf ask before the rank has
// reported. A stacks ask a rank does not answer within stacksTimeout, or
// one made outside a running job, is a 502 naming the rank.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.WriteMetrics(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) { writeJSON(w, t.View()) })
	mux.HandleFunc("GET /rank/{rank}/{what}", func(w http.ResponseWriter, req *http.Request) {
		rank, err := strconv.Atoi(req.PathValue("rank"))
		if err != nil || rank < 0 || rank >= t.size {
			http.Error(w, fmt.Sprintf("no rank %q in a world of %d", req.PathValue("rank"), t.size), http.StatusNotFound)
			return
		}
		t.mu.Lock()
		r, ask := t.reports[rank], t.stacks
		var snap perf.Snapshot
		if r != nil {
			snap = r.snap
		}
		t.mu.Unlock()
		switch req.PathValue("what") {
		case "perf":
			if r == nil {
				http.Error(w, fmt.Sprintf("rank %d has not reported", rank), http.StatusNotFound)
				return
			}
			writeJSON(w, snap)
		case "stacks":
			text, err := "", fmt.Errorf("rank %d: no job is running", rank)
			if ask != nil {
				text, err = ask(rank, stacksTimeout)
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, text)
		default:
			http.NotFound(w, req)
		}
	})
	// net/http/pprof under its standard prefix profiles the launcher process
	// only: a rank links no profiler, and what it answers over its session
	// is its goroutine dump (/rank/R/stacks).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON answers with v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// WriteMetrics renders the job view in the Prometheus text exposition
// format: job-wide totals plus per-rank series labeled by rank, component,
// and host.
func (t *Telemetry) WriteMetrics(w io.Writer) {
	view := t.View()
	scalar := func(kind, name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
	}
	scalar("gauge", "mph_job_ranks_expected", "World size of the running job.", view.WorldSize)
	scalar("gauge", "mph_job_ranks_reporting", "Ranks that have pushed at least one telemetry report.", view.Reporting)
	scalar("gauge", "mph_job_ranks_final", "Ranks whose final (shutdown) report has arrived.", view.Finals)
	scalar("counter", "mph_job_sent_messages_total", "Messages sent, summed over reporting ranks.", view.TotalSentMsgs)
	scalar("counter", "mph_job_recv_messages_total", "Messages received, summed over reporting ranks.", view.TotalRecvMsgs)
	scalar("counter", "mph_job_sent_bytes_total", "Payload bytes sent, summed over reporting ranks.", view.TotalSentBytes)
	scalar("counter", "mph_job_recv_bytes_total", "Payload bytes received, summed over reporting ranks.", view.TotalRecvBytes)

	if len(view.Ranks) == 0 {
		return
	}
	series := func(kind, name, help string, val func(RankStatus) any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, rs := range view.Ranks {
			fmt.Fprintf(w, "%s{rank=%q,component=%q,host=%q} %v\n",
				name, fmt.Sprint(rs.Rank), rs.Component, rs.Host, val(rs))
		}
	}
	series("counter", "mph_rank_sent_messages_total", "Messages sent by one rank.", func(rs RankStatus) any { return rs.SentMsgs })
	series("counter", "mph_rank_recv_messages_total", "Messages received by one rank.", func(rs RankStatus) any { return rs.RecvMsgs })
	series("counter", "mph_rank_sent_bytes_total", "Payload bytes sent by one rank.", func(rs RankStatus) any { return rs.SentBytes })
	series("counter", "mph_rank_recv_bytes_total", "Payload bytes received by one rank.", func(rs RankStatus) any { return rs.RecvBytes })
	series("counter", "mph_rank_coll_seconds_total", "Cumulative wall time one rank spent inside collectives.", func(rs RankStatus) any { return float64(rs.CollNanos) / 1e9 })
	series("gauge", "mph_rank_peak_rss_bytes", "Resident-set high-water mark of the rank's process (VmHWM).", func(rs RankStatus) any { return rs.PeakRSSKB * 1024 })
	series("counter", "mph_rank_gc_cycles_total", "Garbage-collection cycles the rank's process has completed.", func(rs RankStatus) any { return rs.GCCycles })
	series("gauge", "mph_rank_last_report_age_seconds", "Seconds since the rank's latest report, launcher clock.", func(rs RankStatus) any { return float64(rs.LastReportAgeMS) / 1e3 })
	series("gauge", "mph_rank_clock_offset_seconds", "Estimated launcher-clock minus rank-clock offset.", func(rs RankStatus) any { return float64(rs.ClockOffsetNS) / 1e9 })
	series("gauge", "mph_rank_stale", "One when the rank has missed its reporting window without a final report.", func(rs RankStatus) any {
		if rs.Stale {
			return 1
		}
		return 0
	})
}
