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

// TestSummaryLine: the one line mphtrace prints names the events, ranks and
// output, the sampling divisor of the per-message instants, and each rank
// whose ring overwrote events, with how many of how many.
func TestSummaryLine(t *testing.T) {
	dir := makeTestTraces(t)
	paths, _ := expandArgs([]string{dir})
	traces, err := loadTraces(paths)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summary(traces, "out.json"),
		"mphtrace: merged 12 event(s) from 2 rank(s) into out.json; send/recv-post/match sampled 1 in 1"; got != want {
		t.Errorf("summary\n %q, want\n %q", got, want)
	}

	traces[0].meta.Sample, traces[1].meta.Sample = 16, 16
	traces[1].meta.Recorded, traces[1].meta.Dropped = 70000, 4464
	got := summary(traces, "out.json")
	for _, want := range []string{"sampled 1 in 16", "ring overwrote events on rank 1 (beta) 4464 of 70000"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q lacks %q", got, want)
		}
	}
	if strings.Contains(got, "rank 0 (alpha)") || strings.Contains(got, "some ranks") {
		t.Errorf("summary %q names a rank that dropped nothing or a second divisor", got)
	}

	traces[1].meta.Sample = 4
	if got := summary(traces, "out.json"); !strings.Contains(got, "sampled 1 in 16 (1 in 4 on some ranks)") {
		t.Errorf("mixed divisors: summary %q", got)
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
