// Command mphtrace merges the per-rank event traces dumped by an
// instrumented job (mphrun -trace DIR, or MPH_TRACE_DIR) into a single
// Chrome trace_event timeline, loadable in chrome://tracing or Perfetto,
// and prints one summary line: the events merged, from how many ranks, into
// which file, the 1-in-N divisor the per-message instants (send, recv-post,
// match) were sampled under, and every rank whose ring overwrote events.
// Counts — who sent how much to whom, queue high-water marks, collective
// wait skew — are mphrun -stats' job: it reads them exactly from every
// rank's report.
//
// Usage:
//
//	mphtrace [-o trace.json] DIR|FILE...
//
// Each argument is either a directory holding trace.rank*.bin files or an
// individual trace dump (perf.Tracer.Dump). Timestamps from different OS
// processes are aligned using the wall-clock base each rank records in its
// dump's meta record, corrected by the per-rank clock offset the launcher's
// telemetry handshake measured (also in the meta record) — so multi-host
// timelines line up even when the hosts' clocks do not.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mph/internal/mpi/perf"
)

func main() {
	out := flag.String("o", "trace.json", "merged Chrome trace output path")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "mphtrace: need at least one trace directory or file")
		flag.Usage()
		os.Exit(2)
	}
	paths, err := expandArgs(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphtrace: %v\n", err)
		os.Exit(1)
	}
	traces, err := loadTraces(paths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphtrace: %v\n", err)
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphtrace: %v\n", err)
		os.Exit(1)
	}
	if err := writeChromeTrace(f, traces); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "mphtrace: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mphtrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(summary(traces, *out))
}

// summary is the one line mphtrace prints after the merge: the events merged
// from how many ranks into out, the sampling divisor of the per-message
// instants (so a reader of the timeline knows each send or match it shows
// stands for N), and every rank whose ring overwrote events — its timeline
// starts late.
func summary(traces []rankTrace, out string) string {
	total, minSample, maxSample := 0, 0, 0
	var dropped []string
	for i, rt := range traces {
		total += len(rt.events)
		n := max(rt.meta.Sample, 1)
		if i == 0 || n < minSample {
			minSample = n
		}
		maxSample = max(maxSample, n)
		if rt.meta.Dropped > 0 {
			dropped = append(dropped, fmt.Sprintf("%s %d of %d", rankName(rt.meta), rt.meta.Dropped, rt.meta.Recorded))
		}
	}
	line := fmt.Sprintf("mphtrace: merged %d event(s) from %d rank(s) into %s; send/recv-post/match sampled 1 in %d",
		total, len(traces), out, maxSample)
	if minSample != maxSample {
		line = fmt.Sprintf("%s (1 in %d on some ranks)", line, minSample)
	}
	if len(dropped) > 0 {
		line += "; ring overwrote events on " + strings.Join(dropped, ", ")
	}
	return line
}

// rankName names a rank for display: "rank 3", or "rank 3 (ocean)".
func rankName(m perf.Meta) string {
	if m.Component == "" {
		return fmt.Sprintf("rank %d", m.Rank)
	}
	return fmt.Sprintf("rank %d (%s)", m.Rank, m.Component)
}

// rankTrace is one rank's parsed dump.
type rankTrace struct {
	meta   perf.Meta
	events []perf.Event
}

// expandArgs resolves each argument to trace files: directories expand to
// their trace.rank*.bin members, files pass through.
func expandArgs(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "trace.rank*.bin"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("no trace.rank*.bin files in %s", a)
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)
	return paths, nil
}

// loadTraces parses every file, sorted by rank.
func loadTraces(paths []string) ([]rankTrace, error) {
	traces := make([]rankTrace, 0, len(paths))
	for _, p := range paths {
		rt, err := loadTrace(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		traces = append(traces, rt)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].meta.Rank < traces[j].meta.Rank })
	return traces, nil
}

func loadTrace(path string) (rankTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return rankTrace{}, err
	}
	defer f.Close()
	meta, events, err := perf.ReadDump(bufio.NewReader(f))
	return rankTrace{meta: meta, events: events}, err
}

// chromeEvent is one entry of the Chrome trace_event JSON array. Timestamps
// are microseconds; pid is the world rank so each rank gets its own row.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// alignedBase is a rank's trace origin on the launcher's clock: the rank's
// wall-clock base shifted by the clock offset the telemetry handshake
// measured (launcher minus rank, so adding it converts rank time to launcher
// time). Zero offset — single host, or telemetry off — degrades to the raw
// wall clock.
func alignedBase(rt rankTrace) int64 {
	return rt.meta.BaseUnix + rt.meta.ClockOffsetNS
}

// buildChromeTrace converts the parsed per-rank streams into one timeline.
// Each rank's monotonic timestamps are rebased onto a shared origin: the
// earliest clock-aligned wall-clock base among all ranks.
func buildChromeTrace(traces []rankTrace) []chromeEvent {
	if len(traces) == 0 {
		return nil
	}
	origin := alignedBase(traces[0])
	for _, rt := range traces[1:] {
		if b := alignedBase(rt); b < origin {
			origin = b
		}
	}
	var out []chromeEvent
	for _, rt := range traces {
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: rt.meta.Rank,
			Args: map[string]any{"name": rankName(rt.meta)},
		})
		offset := alignedBase(rt) - origin
		for _, e := range rt.events {
			us := float64(offset+e.TS) / 1e3
			ce := chromeEvent{TS: us, PID: rt.meta.Rank}
			switch e.Kind {
			case perf.KBegin:
				ce.Name, ce.Phase = perf.SpanName(e.A, e.B), "B"
				if e.B != 0 {
					ce.Args = map[string]any{"bytes": e.C}
				}
			case perf.KEnd:
				ce.Name, ce.Phase = perf.SpanName(e.A, e.B), "E"
			case perf.KSend:
				ce.Name, ce.Phase, ce.Scope = "send", "i", "t"
				ce.Args = map[string]any{"dst": e.A, "tag": e.B, "bytes": e.C}
			case perf.KMatch:
				ce.Name, ce.Phase, ce.Scope = "match", "i", "t"
				ce.Args = map[string]any{"src": e.A, "tag": e.B, "bytes": e.C, "umq_depth": e.D}
			case perf.KRecvPost:
				ce.Name, ce.Phase, ce.Scope = "recv-post", "i", "t"
				ce.Args = map[string]any{"src": e.A, "tag": e.B, "prq_depth": e.D}
			case perf.KCommSplit:
				ce.Name, ce.Phase, ce.Scope = "comm-split", "i", "t"
				ce.Args = map[string]any{"color": e.A, "new_size": e.B}
			case perf.KCommDup:
				ce.Name, ce.Phase, ce.Scope = "comm-dup", "i", "t"
			case perf.KCommJoin:
				ce.Name, ce.Phase, ce.Scope = "comm-join", "i", "t"
				ce.Args = map[string]any{"size": e.A}
			default:
				ce.Name, ce.Phase, ce.Scope = e.Kind.String(), "i", "t"
			}
			out = append(out, ce)
		}
	}
	return out
}

// writeChromeTrace emits the timeline in the JSON object form
// ({"traceEvents": [...]}) both viewers accept.
func writeChromeTrace(w io.Writer, traces []rankTrace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": buildChromeTrace(traces)})
}
