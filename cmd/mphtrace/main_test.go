package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mph/internal/mpi/perf"
)

// writeRankTrace dumps a synthetic two-rank trace file via the same
// Tracer.Dump the library uses at finalize.
func writeRankTrace(t *testing.T, dir string, rank int, base time.Time, record func(tr *perf.Tracer)) string {
	t.Helper()
	tr := perf.NewTracer(64, base)
	record(tr)
	path := filepath.Join(dir, "trace.rank000"+string(rune('0'+rank))+".bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	comp := "alpha"
	if rank == 1 {
		comp = "beta"
	}
	if err := tr.Dump(f, perf.Meta{Rank: rank, Size: 2, Component: comp}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func makeTestTraces(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	base := time.Now()
	writeRankTrace(t, dir, 0, base, func(tr *perf.Tracer) {
		tr.Begin(int64(perf.PhaseRegistry), 0, 0).End()
		tr.Record(perf.KSend, 1, 7, 100, 0) // rank 0 -> rank 1, 100 bytes
		tr.Record(perf.KSend, 1, 7, 50, 0)
		tr.Begin(int64(perf.CollBarrier), 0, 0).End()
		tr.Begin(int64(perf.CollAllreduce), int64(perf.CollPhaseIntra), 64).End()
	})
	// Rank 1's process started 1ms later: its monotonic timestamps must be
	// shifted onto rank 0's origin in the merged timeline.
	writeRankTrace(t, dir, 1, base.Add(time.Millisecond), func(tr *perf.Tracer) {
		tr.Record(perf.KRecvPost, 0, 7, 0, 3)
		tr.Record(perf.KMatch, 0, 7, 100, 5)
		tr.Record(perf.KMatch, 0, 7, 50, 2)
		tr.Record(perf.KSend, 0, 9, 10, 0)
	})
	return dir
}

func TestMergeProducesValidChromeTrace(t *testing.T) {
	dir := makeTestTraces(t)
	paths, err := expandArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("expanded to %d files, want 2", len(paths))
	}
	traces, err := loadTraces(paths)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := writeChromeTrace(&sb, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("merged output is not valid JSON: %v", err)
	}
	// 12 events + 2 process_name metadata records.
	if len(doc.TraceEvents) != 14 {
		t.Fatalf("got %d trace events, want 14", len(doc.TraceEvents))
	}
	var metas, instants int
	var begins, ends []string
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "M":
			metas++
		case "B":
			begins = append(begins, e.Name)
			if e.Name == "allreduce/intra" && e.Args["bytes"] != float64(64) {
				t.Errorf("two-level phase begin args %v, want bytes 64", e.Args)
			}
		case "E":
			ends = append(ends, e.Name)
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if metas != 2 || instants != 6 {
		t.Errorf("phase counts M=%d i=%d, want 2/6", metas, instants)
	}
	// Span names are what a timeline shows; they stay byte-identical.
	wantSpans := "handshake:registry,barrier,allreduce/intra"
	if got := strings.Join(begins, ","); got != wantSpans {
		t.Errorf("begin names %q, want %q", got, wantSpans)
	}
	if got := strings.Join(ends, ","); got != wantSpans {
		t.Errorf("end names %q, want %q", got, wantSpans)
	}
	// Rank 1's events are rebased onto rank 0's wall-clock origin: merged
	// ts = (base offset + raw monotonic ts) in µs. Verify against the raw
	// stream, first instant of each rank.
	offset := traces[1].meta.BaseUnix - traces[0].meta.BaseUnix
	if offset != int64(time.Millisecond) {
		t.Fatalf("meta base offset %dns, want 1ms", offset)
	}
	wantTS := float64(offset+traces[1].events[0].TS) / 1e3
	var got float64
	for _, e := range doc.TraceEvents {
		if e.PID == 1 && e.Name == "recv-post" {
			got = e.TS
			break
		}
	}
	if got != wantTS {
		t.Errorf("rank 1 first event at %.3fµs, want rebased %.3fµs", got, wantTS)
	}
}

func TestTopTalkersAndQueuePressure(t *testing.T) {
	dir := makeTestTraces(t)
	paths, _ := expandArgs([]string{dir})
	traces, err := loadTraces(paths)
	if err != nil {
		t.Fatal(err)
	}
	talkers := topTalkers(traces, 5)
	if len(talkers) != 2 {
		t.Fatalf("got %d talker pairs, want 2", len(talkers))
	}
	if talkers[0].src != 0 || talkers[0].dst != 1 || talkers[0].bytes != 150 || talkers[0].msgs != 2 {
		t.Errorf("top talker %+v, want 0->1 2 msgs 150 bytes", talkers[0])
	}
	if talkers[1].bytes != 10 {
		t.Errorf("second talker %+v, want 10 bytes", talkers[1])
	}
	if got := topTalkers(traces, 1); len(got) != 1 {
		t.Errorf("top-1 returned %d pairs", len(got))
	}

	qp := queuePressure(traces)
	if len(qp) != 2 {
		t.Fatalf("got %d pressure rows, want 2", len(qp))
	}
	if qp[1].maxUMQ != 5 || qp[1].maxPRQ != 3 {
		t.Errorf("rank 1 pressure umq=%d prq=%d, want 5/3", qp[1].maxUMQ, qp[1].maxPRQ)
	}
	if qp[0].component != "alpha" || qp[1].component != "beta" {
		t.Errorf("components %q/%q, want alpha/beta", qp[0].component, qp[1].component)
	}

	var sb strings.Builder
	printSummaries(&sb, traces, 5)
	out := sb.String()
	if !strings.Contains(out, "top talkers") || !strings.Contains(out, "queue pressure") {
		t.Errorf("summary output missing sections:\n%s", out)
	}
}

// TestTopTalkersScalesSampledSends reads a sender that kept 1 in 16 sends
// (mphrun -trace's default) as having sent 16 times what it kept, and marks
// the table as an estimate.
func TestTopTalkersScalesSampledSends(t *testing.T) {
	sends := []perf.Event{{Kind: perf.KSend, A: 1, C: 100}, {Kind: perf.KSend, A: 1, C: 50}}
	traces := []rankTrace{syntheticTrace(0, "alpha", 0, 0, sends)}
	traces[0].meta.Sample = 16
	talkers := topTalkers(traces, 5)
	if len(talkers) != 1 || talkers[0].msgs != 32 || talkers[0].bytes != 16*150 {
		t.Fatalf("talkers %+v, want 0->1 32 msgs %d bytes", talkers, 16*150)
	}
	var sb strings.Builder
	printSummaries(&sb, traces, 5)
	if !strings.Contains(sb.String(), "estimated") {
		t.Errorf("a sampled table must say it is estimated:\n%s", sb.String())
	}
	traces[0].meta.Sample = 0 // full fidelity: exact counts, no mark
	sb.Reset()
	printSummaries(&sb, traces, 5)
	if talkers := topTalkers(traces, 5); talkers[0].msgs != 2 || strings.Contains(sb.String(), "estimated") {
		t.Errorf("unsampled talkers %+v, table:\n%s", talkers, sb.String())
	}
}

// syntheticTrace builds a rankTrace without the file round trip, with full
// control of the meta's wall-clock base and measured clock offset.
func syntheticTrace(rank int, comp string, baseUnix, clockOff int64, events []perf.Event) rankTrace {
	return rankTrace{
		meta: perf.Meta{
			Rank: rank, Size: 3, Component: comp,
			BaseUnix: baseUnix, ClockOffsetNS: clockOff,
		},
		events: events,
	}
}

func TestAlignedBaseAppliesClockOffset(t *testing.T) {
	// Rank 1's host clock runs 5ms behind the launcher: its raw BaseUnix is
	// 5ms early, and the telemetry handshake measured +5ms. After alignment
	// the two ranks share an origin, so identical monotonic offsets must
	// land on identical merged timestamps.
	enter := []perf.Event{{Kind: perf.KBegin, A: int64(perf.CollBarrier), TS: 1000}}
	traces := []rankTrace{
		syntheticTrace(0, "alpha", 1_000_000_000, 0, enter),
		syntheticTrace(1, "beta", 1_000_000_000-5_000_000, 5_000_000, enter),
	}
	if a, b := alignedBase(traces[0]), alignedBase(traces[1]); a != b {
		t.Fatalf("aligned bases differ: %d vs %d", a, b)
	}
	events := buildChromeTrace(traces)
	var ts []float64
	for _, e := range events {
		if e.Phase == "B" {
			ts = append(ts, e.TS)
		}
	}
	if len(ts) != 2 || ts[0] != ts[1] {
		t.Errorf("aligned enters at %v, want two equal timestamps", ts)
	}
}

func TestCollectSkewsNamesSlowestRank(t *testing.T) {
	op := int64(perf.CollAllreduce)
	mk := func(ts ...int64) []perf.Event {
		evs := make([]perf.Event, len(ts))
		for i, v := range ts {
			evs[i] = perf.Event{Kind: perf.KBegin, A: op, TS: v}
		}
		return evs
	}
	// Three ranks, two invocations. Rank 2 arrives last both times — by 900ns
	// then 400ns — and should be named the straggler. Rank 1's third enter
	// (a sub-communicator collective the others never ran) must be ignored:
	// only the common prefix of invocations is compared.
	traces := []rankTrace{
		syntheticTrace(0, "alpha", 1000, 0, mk(100, 2000)),
		syntheticTrace(1, "beta", 1000, 0, mk(150, 2100, 9000)),
		syntheticTrace(2, "beta", 1000, 0, mk(1000, 2400)),
	}
	skews := collectSkews(traces)
	if len(skews) != 1 {
		t.Fatalf("got %d skew rows, want 1", len(skews))
	}
	s := skews[0]
	if s.op != op || s.invocations != 2 || s.ranks != 3 {
		t.Errorf("row %+v, want op %d over 2 invocations on 3 ranks", s, op)
	}
	if s.maxSkew != 900 || s.maxSkewInv != 0 {
		t.Errorf("max skew %d@%d, want 900@0", s.maxSkew, s.maxSkewInv)
	}
	if s.totalSkew != 900+400 {
		t.Errorf("total skew %d, want 1300", s.totalSkew)
	}
	rank, count := s.slowest()
	if rank != 2 || count != 2 {
		t.Errorf("slowest = rank %d (%d times), want rank 2 both times", rank, count)
	}

	var sb strings.Builder
	printStragglers(&sb, traces)
	out := sb.String()
	if !strings.Contains(out, "allreduce") || !strings.Contains(out, "2 (beta)") {
		t.Errorf("straggler table must name rank 2 (beta):\n%s", out)
	}

	// A clock offset that delays rank 0's events past rank 2's flips the
	// verdict — alignment changes who looks slow, which is the point.
	traces[0].meta.ClockOffsetNS = 5000
	skews = collectSkews(traces)
	if rank, _ := skews[0].slowest(); rank != 0 {
		t.Errorf("with rank 0 shifted +5µs the straggler is rank %d, want 0", rank)
	}

	// Two-level phase and handshake spans are not collective arrivals.
	for i := range traces {
		traces[i].events = append(traces[i].events,
			perf.Event{Kind: perf.KBegin, A: op, B: int64(perf.CollPhaseInter), TS: 50_000 + int64(i)},
			perf.Event{Kind: perf.KBegin, A: int64(perf.PhaseSplit), TS: 60_000 + int64(i)})
	}
	if skews = collectSkews(traces); len(skews) != 1 || skews[0].invocations != 2 {
		t.Errorf("phase spans counted as collectives: %+v", skews)
	}

	// Single-rank ops produce no row.
	solo := []rankTrace{syntheticTrace(0, "alpha", 1000, 0, mk(100))}
	if got := collectSkews(solo); len(got) != 0 {
		t.Errorf("solo rank produced %d skew rows", len(got))
	}
}

func TestExpandArgsErrors(t *testing.T) {
	if _, err := expandArgs([]string{filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing path accepted")
	}
	if _, err := expandArgs([]string{t.TempDir()}); err == nil {
		t.Error("empty directory accepted")
	}
}

func TestLoadTraceRejectsMissingMeta(t *testing.T) {
	tr := perf.NewTracer(4, time.Now())
	tr.Record(perf.KSend, 1, 7, 100, 0)
	var dump bytes.Buffer
	if err := tr.Dump(&dump, perf.Meta{}); err != nil {
		t.Fatal(err)
	}
	events := dump.Bytes()[4+binary.LittleEndian.Uint32(dump.Bytes()):] // the meta record cut off
	path := filepath.Join(t.TempDir(), "trace.rank0000.bin")
	if err := os.WriteFile(path, events, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(path); err == nil {
		t.Error("trace without meta record accepted")
	}
}
