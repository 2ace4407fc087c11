package main

import (
	"strings"
	"testing"
	"time"

	"mph/internal/mpi/perf"
	"mph/internal/mpirun"
)

// reported is an aggregator for a world of size ranks holding snaps as the
// ranks' reports, each final unless its world rank is in notFinal.
func reported(t *testing.T, size int, snaps []perf.Snapshot, notFinal ...int) *mpirun.Telemetry {
	t.Helper()
	tele, err := mpirun.NewTelemetry(size, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		final := true
		for _, r := range notFinal {
			final = final && r != s.WorldRank
		}
		tele.Ingest(s.WorldRank, s, 1, final, time.Now())
	}
	return tele
}

// statsOf is what -stats prints for the reports.
func statsOf(t *testing.T, size int, snaps []perf.Snapshot, notFinal ...int) string {
	t.Helper()
	var buf strings.Builder
	printStats(&buf, reported(t, size, snaps, notFinal...))
	return buf.String()
}

// TestPrintStatsReconcile: the summary says the totals reconcile only when
// every rank of the world sent its final report and messages and bytes both
// agree: the aggregator's JobView.Reconciled, the same verdict /status gives.
func TestPrintStatsReconcile(t *testing.T) {
	snap := func(rank int, sentMsgs, recvMsgs, sentBytes, recvBytes uint64) perf.Snapshot {
		return perf.Snapshot{WorldRank: rank, Component: "comp", TotalSentMsgs: sentMsgs,
			TotalRecvMsgs: recvMsgs, TotalSentBytes: sentBytes, TotalRecvBytes: recvBytes}
	}
	cases := []struct {
		name  string
		snaps []perf.Snapshot
		size  int
		want  string
	}{
		{"whole world", []perf.Snapshot{snap(0, 2, 1, 16, 8), snap(1, 1, 2, 8, 16)}, 2,
			"totals reconcile: 3 messages sent == 3 received"},
		{"partial world", []perf.Snapshot{snap(0, 0, 0, 0, 0)}, 3,
			"totals cannot reconcile: 1 of 3 final reports"},
		{"bytes differ", []perf.Snapshot{snap(0, 2, 1, 16, 8), snap(1, 1, 2, 8, 12)}, 2,
			"WARNING: totals do not reconcile: 3 messages (24 bytes) sent != 3 (20 bytes) received"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := statsOf(t, c.size, c.snaps)
			if !strings.Contains(out, c.want) {
				t.Errorf("summary lacks %q:\n%s", c.want, out)
			}
			if c.name != "whole world" && strings.Contains(out, "totals reconcile") {
				t.Errorf("summary claims the totals reconcile:\n%s", out)
			}
		})
	}
}

// TestPrintStatsReconcileNeedsFinals: a world whose every rank reported, with
// equal totals, does not reconcile while one rank's report is not its final
// one — a rank SIGKILLed under -stats-interval leaves its last periodic
// report behind — and the summary says so, not a WARNING.
func TestPrintStatsReconcileNeedsFinals(t *testing.T) {
	snaps := []perf.Snapshot{
		{WorldRank: 0, Component: "comp", TotalSentMsgs: 2, TotalRecvMsgs: 1, TotalSentBytes: 16, TotalRecvBytes: 8},
		{WorldRank: 1, Component: "comp", TotalSentMsgs: 1, TotalRecvMsgs: 2, TotalSentBytes: 8, TotalRecvBytes: 16},
		{WorldRank: 2, Component: "comp"},
	}
	out := statsOf(t, 3, snaps, 1)
	if want := "mphrun: totals cannot reconcile: 2 of 3 final reports\n"; !strings.Contains(out, want) {
		t.Errorf("summary lacks %q:\n%s", want, out)
	}
	if strings.Contains(out, "totals reconcile") || strings.Contains(out, "WARNING") {
		t.Errorf("summary gives a second verdict:\n%s", out)
	}
}

// TestPrintStatsTopTalkers: the table reads each sender's per-peer counters
// exactly, names both ends by rank and component, orders by bytes with ties
// in (src, dst) order, and stops at five rows.
func TestPrintStatsTopTalkers(t *testing.T) {
	snaps := []perf.Snapshot{
		{WorldRank: 0, Component: "atm", SentMsgs: []uint64{0, 3, 1, 7}, SentBytes: []uint64{0, 300, 50, 700}},
		{WorldRank: 1, Component: "atm", SentMsgs: []uint64{2, 0, 0, 1}, SentBytes: []uint64{50, 0, 0, 4096}},
		{WorldRank: 2, Component: "ocn", SentMsgs: []uint64{1, 1, 0, 9}, SentBytes: []uint64{0, 50, 0, 50}},
		{WorldRank: 3, Component: "cpl", SentMsgs: []uint64{0, 0, 0, 0}, SentBytes: []uint64{0, 0, 0, 0}},
	}
	want := []talker{
		{src: 1, dst: 3, msgs: 1, bytes: 4096},
		{src: 0, dst: 3, msgs: 7, bytes: 700},
		{src: 0, dst: 1, msgs: 3, bytes: 300},
		{src: 0, dst: 2, msgs: 1, bytes: 50},
		{src: 1, dst: 0, msgs: 2, bytes: 50},
		// cut: 2 -> 1 and 2 -> 3 (50 bytes), 2 -> 0 (a zero-byte message)
	}
	got := topTalkers(snaps)
	if len(got) != len(want) {
		t.Fatalf("top talkers %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	out := statsOf(t, 4, snaps)
	head := "mphrun: top talkers (exact, by bytes sent)\n"
	i := strings.Index(out, head)
	if i < 0 {
		t.Fatalf("summary lacks %q:\n%s", head, out)
	}
	rows := strings.Split(strings.TrimSuffix(out[i+len(head):], "\n"), "\n")
	if len(rows) != 1+len(want) || strings.Join(strings.Fields(rows[0]), " ") != "src dst msgs bytes" {
		t.Fatalf("table:\n%s", out[i:])
	}
	if first := strings.Join(strings.Fields(rows[1]), " "); first != "1 (atm) -> 3 (cpl) 1 4096" {
		t.Errorf("first row %q, want 1 (atm) -> 3 (cpl) 1 4096", first)
	}
	if last := strings.Join(strings.Fields(rows[5]), " "); last != "1 (atm) -> 0 (atm) 2 50" {
		t.Errorf("last row %q, want 1 (atm) -> 0 (atm) 2 50", last)
	}

	// A world that sent nothing prints no table.
	if out := statsOf(t, 1, snaps[3:]); strings.Contains(out, "top talkers") {
		t.Errorf("an idle world printed a top-talkers table:\n%s", out)
	}
}

// TestPrintStatsRouting: the routing line sums every rank's flat and
// two-level selections and names only the algorithms the selector has.
func TestPrintStatsRouting(t *testing.T) {
	snaps := []perf.Snapshot{
		{WorldRank: 0, Component: "comp", Collectives: map[string]perf.CollSnap{
			"allreduce": {Count: 3, Tree: 2, Hier: 1}, "bcast": {Count: 1, Hier: 1}}},
		{WorldRank: 1, Component: "comp", Collectives: map[string]perf.CollSnap{
			"allreduce": {Count: 3, Tree: 3}}},
	}
	out := statsOf(t, 2, snaps)
	if want := "mphrun: collective routing: tree=5 hier=2\n"; !strings.Contains(out, want) {
		t.Errorf("summary lacks %q:\n%s", want, out)
	}
	if strings.Contains(out, "ring=") {
		t.Errorf("summary names a ring:\n%s", out)
	}
}

// TestPrintStatsAnonColumn: the last column is resident anonymous memory,
// summed over a component's ranks, beside their largest peak.
func TestPrintStatsAnonColumn(t *testing.T) {
	snaps := []perf.Snapshot{
		{WorldRank: 0, Component: "comp", PeakRSSKB: 4096, AnonKB: 1024, GCCycles: 1},
		{WorldRank: 1, Component: "comp", PeakRSSKB: 3072, AnonKB: 2048},
	}
	out := statsOf(t, 2, snaps)
	lines := strings.Split(out, "\n")
	if head := strings.Fields(lines[1]); strings.Join(head[len(head)-7:], " ") != "peak rss MB gc cycles anon MB" {
		t.Errorf("header ends %q, want peak rss MB, gc cycles, anon MB:\n%s", head[len(head)-7:], out)
	}
	for _, row := range lines[2:4] {
		f := strings.Fields(row)
		if got := strings.Join(f[len(f)-3:], " "); got != "4.0 1 3.0" {
			t.Errorf("row %q ends %q, want 4.0 1 3.0", row, got)
		}
	}
}
