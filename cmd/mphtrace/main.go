// Command mphtrace merges the per-rank event traces dumped by an
// instrumented job (mphrun -trace DIR, or MPH_TRACE_DIR) into a single
// Chrome trace_event timeline, loadable in chrome://tracing or Perfetto,
// and prints quick textual summaries: the top talkers (sender→receiver byte
// volume) and per-rank queue pressure (matching-engine high-water depths
// observed in the event stream).
//
// Usage:
//
//	mphtrace [-o trace.json] [-top N] [-stragglers] DIR|FILE...
//
// Each argument is either a directory holding trace.rank*.bin files or an
// individual trace dump (perf.Tracer.Dump). Timestamps from different OS
// processes are aligned using the wall-clock base each rank records in its
// dump's meta record, corrected by the per-rank clock offset the launcher's
// telemetry handshake measured (also in the meta record) — so multi-host
// timelines line up even when the hosts' clocks do not.
//
// -stragglers compares collective arrival times across ranks invocation by
// invocation: the last rank to enter a collective made everyone else wait,
// and the table names the ranks that are last most often.
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
	"time"

	"mph/internal/mpi/perf"
)

func main() {
	out := flag.String("o", "trace.json", "merged Chrome trace output path")
	topN := flag.Int("top", 5, "number of sender→receiver pairs in the top-talkers summary")
	stragglersFlag := flag.Bool("stragglers", false, "print per-collective arrival skew across ranks and name the slowest (last-arriving) ranks")
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

	total := 0
	for _, rt := range traces {
		total += len(rt.events)
	}
	fmt.Printf("mphtrace: merged %d event(s) from %d rank(s) into %s\n", total, len(traces), *out)
	printSummaries(os.Stdout, traces, *topN)
	if *stragglersFlag {
		printStragglers(os.Stdout, traces)
	}
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
		name := fmt.Sprintf("rank %d", rt.meta.Rank)
		if rt.meta.Component != "" {
			name += " (" + rt.meta.Component + ")"
		}
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: rt.meta.Rank,
			Args: map[string]any{"name": name},
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

// talker is one sender→receiver aggregate from the send events.
type talker struct {
	src, dst    int
	msgs, bytes uint64
}

// topTalkers aggregates KSend events into sender→receiver volumes, sorted
// by bytes descending, truncated to n. A sender that kept 1 in Sample sends
// counts each kept one Sample times, so volumes estimate the whole.
func topTalkers(traces []rankTrace, n int) []talker {
	type key struct{ src, dst int }
	agg := make(map[key]*talker)
	for _, rt := range traces {
		scale := uint64(max(rt.meta.Sample, 1))
		for _, e := range rt.events {
			if e.Kind != perf.KSend {
				continue
			}
			k := key{src: rt.meta.Rank, dst: int(e.A)}
			t, ok := agg[k]
			if !ok {
				t = &talker{src: k.src, dst: k.dst}
				agg[k] = t
			}
			t.msgs += scale
			t.bytes += scale * uint64(e.C)
		}
	}
	out := make([]talker, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bytes != out[j].bytes {
			return out[i].bytes > out[j].bytes
		}
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// pressure is one rank's queue-depth high water as seen in the event
// stream: UMQ depth at match time, PRQ depth at post time.
type pressure struct {
	rank           int
	component      string
	maxUMQ, maxPRQ int64
	recorded, lost uint64
}

// queuePressure extracts per-rank queue-depth maxima.
func queuePressure(traces []rankTrace) []pressure {
	out := make([]pressure, 0, len(traces))
	for _, rt := range traces {
		p := pressure{
			rank:      rt.meta.Rank,
			component: rt.meta.Component,
			recorded:  rt.meta.Recorded,
			lost:      rt.meta.Dropped,
		}
		for _, e := range rt.events {
			switch e.Kind {
			case perf.KMatch:
				if e.D > p.maxUMQ {
					p.maxUMQ = e.D
				}
			case perf.KRecvPost:
				if e.D > p.maxPRQ {
					p.maxPRQ = e.D
				}
			}
		}
		out = append(out, p)
	}
	return out
}

// opSkew is the cross-rank arrival-skew aggregate of one collective op.
type opSkew struct {
	op          int64
	invocations int         // invocations compared (min across participating ranks)
	ranks       int         // ranks that ran the op
	totalSkew   int64       // sum over invocations of (last − first arrival)
	maxSkew     int64       // worst single invocation
	maxSkewInv  int         // which invocation was worst
	lastCount   map[int]int // rank -> times it arrived last
}

// slowest returns the rank that arrived last most often and how often.
func (s *opSkew) slowest() (rank, count int) {
	rank = -1
	for r, c := range s.lastCount {
		if c > count || (c == count && (rank == -1 || r < rank)) {
			rank, count = r, c
		}
	}
	return rank, count
}

// collectSkews matches collective KBegin events across ranks invocation by
// invocation on the launcher-aligned clock. Spans are never dropped by
// trace sampling, so the k-th begin of an op on every rank
// belongs to the same collective — as long as all traced ranks run their
// world-communicator collectives in the same order, which MPI semantics
// already require. Sub-communicator collectives shift the indexing for
// their members; the tool compares only the common prefix (min invocation
// count across ranks).
func collectSkews(traces []rankTrace) []opSkew {
	enters := make(map[int64]map[int][]int64) // op -> rank -> aligned enter times
	for _, rt := range traces {
		base := alignedBase(rt)
		for _, e := range rt.events {
			if e.Kind != perf.KBegin || e.B != 0 || e.A >= int64(perf.NumCollOps) {
				continue // not a whole collective
			}
			m := enters[e.A]
			if m == nil {
				m = make(map[int][]int64)
				enters[e.A] = m
			}
			m[rt.meta.Rank] = append(m[rt.meta.Rank], base+e.TS)
		}
	}
	var out []opSkew
	for op, byRank := range enters {
		if len(byRank) < 2 {
			continue // no skew of one
		}
		n := -1
		for _, ts := range byRank {
			if n == -1 || len(ts) < n {
				n = len(ts)
			}
		}
		s := opSkew{op: op, invocations: n, ranks: len(byRank), lastCount: make(map[int]int)}
		for k := 0; k < n; k++ {
			first, last, lastRank := int64(0), int64(0), -1
			for r, ts := range byRank {
				t := ts[k]
				if lastRank == -1 || t < first {
					first = t
				}
				if lastRank == -1 || t > last {
					last, lastRank = t, r
				}
			}
			skew := last - first
			s.totalSkew += skew
			if skew > s.maxSkew {
				s.maxSkew, s.maxSkewInv = skew, k
			}
			s.lastCount[lastRank]++
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].maxSkew != out[j].maxSkew {
			return out[i].maxSkew > out[j].maxSkew
		}
		return out[i].op < out[j].op
	})
	return out
}

// printStragglers renders the arrival-skew table. Silent when fewer than two
// traced ranks share a collective.
func printStragglers(w io.Writer, traces []rankTrace) {
	skews := collectSkews(traces)
	if len(skews) == 0 {
		fmt.Fprintf(w, "\nstragglers: no collective ran on two or more traced ranks\n")
		return
	}
	component := make(map[int]string)
	aligned := false
	for _, rt := range traces {
		component[rt.meta.Rank] = rt.meta.Component
		aligned = aligned || rt.meta.ClockOffsetNS != 0
	}
	fmt.Fprintf(w, "\ncollective arrival skew (last rank in made the others wait):\n")
	fmt.Fprintf(w, "  %-12s %6s %6s %12s %16s %24s\n",
		"op", "invoc", "ranks", "mean skew", "max skew", "slowest rank")
	for _, s := range skews {
		rank, count := s.slowest()
		name := fmt.Sprintf("%d", rank)
		if c := component[rank]; c != "" {
			name += " (" + c + ")"
		}
		fmt.Fprintf(w, "  %-12s %6d %6d %12s %16s %24s\n",
			perf.CollOpName(s.op), s.invocations, s.ranks,
			time.Duration(s.totalSkew/int64(s.invocations)).Round(time.Microsecond),
			fmt.Sprintf("%s @#%d", time.Duration(s.maxSkew).Round(time.Microsecond), s.maxSkewInv),
			fmt.Sprintf("%s last %d/%d", name, count, s.invocations))
	}
	if !aligned {
		fmt.Fprintf(w, "  (no clock offsets in these traces — cross-host skews include raw clock error;\n"+
			"   run under mphrun -trace so the telemetry handshake measures offsets)\n")
	}
}

// printSummaries renders the textual top-talkers and queue-pressure tables.
func printSummaries(w io.Writer, traces []rankTrace, topN int) {
	talkers := topTalkers(traces, topN)
	if len(talkers) > 0 {
		estimated := ""
		for _, rt := range traces {
			if rt.meta.Sample > 1 {
				estimated = ", estimated: sampled sends scaled by their rank's 1-in-N"
			}
		}
		fmt.Fprintf(w, "\ntop talkers (by bytes%s):\n", estimated)
		fmt.Fprintf(w, "  %-12s %10s %12s\n", "src -> dst", "msgs", "bytes")
		for _, t := range talkers {
			fmt.Fprintf(w, "  %4d -> %-4d %10d %12d\n", t.src, t.dst, t.msgs, t.bytes)
		}
	}
	fmt.Fprintf(w, "\nqueue pressure (maxima over recorded events; mphrun -stats prints the exact umq-hw/prq-hw):\n")
	fmt.Fprintf(w, "  %-5s %-16s %10s %10s %10s %8s\n", "rank", "component", "max umq", "max prq", "events", "dropped")
	for _, p := range queuePressure(traces) {
		comp := p.component
		if comp == "" {
			comp = "-"
		}
		fmt.Fprintf(w, "  %-5d %-16s %10d %10d %10d %8d\n",
			p.rank, comp, p.maxUMQ, p.maxPRQ, p.recorded, p.lost)
	}
}
