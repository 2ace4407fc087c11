package main

import (
	"strings"
	"testing"

	"mph/internal/mpi/perf"
)

// TestPrintStatsReconcile: the summary says the totals reconcile only when
// every rank of the world reported and messages and bytes both agree.
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
			"totals cannot reconcile: 1 of 3 ranks reported"},
		{"bytes differ", []perf.Snapshot{snap(0, 2, 1, 16, 8), snap(1, 1, 2, 8, 12)}, 2,
			"WARNING: totals do not reconcile: 3 messages (24 bytes) sent != 3 (20 bytes) received"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf strings.Builder
			printStats(&buf, c.snaps, c.size)
			if !strings.Contains(buf.String(), c.want) {
				t.Errorf("summary lacks %q:\n%s", c.want, buf.String())
			}
			if c.name != "whole world" && strings.Contains(buf.String(), "totals reconcile") {
				t.Errorf("summary claims the totals reconcile:\n%s", buf.String())
			}
		})
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
	var buf strings.Builder
	printStats(&buf, snaps, 2)
	if want := "mphrun: collective routing: tree=5 hier=2\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, buf.String())
	}
	if strings.Contains(buf.String(), "ring=") {
		t.Errorf("summary names a ring:\n%s", buf.String())
	}
}

// TestPrintStatsAnonColumn: the last column is resident anonymous memory,
// summed over a component's ranks, beside their largest peak.
func TestPrintStatsAnonColumn(t *testing.T) {
	snaps := []perf.Snapshot{
		{WorldRank: 0, Component: "comp", PeakRSSKB: 4096, AnonKB: 1024, GCCycles: 1},
		{WorldRank: 1, Component: "comp", PeakRSSKB: 3072, AnonKB: 2048},
	}
	var buf strings.Builder
	printStats(&buf, snaps, 2)
	lines := strings.Split(buf.String(), "\n")
	if head := strings.Fields(lines[1]); strings.Join(head[len(head)-7:], " ") != "peak rss MB gc cycles anon MB" {
		t.Errorf("header ends %q, want peak rss MB, gc cycles, anon MB:\n%s", head[len(head)-7:], buf.String())
	}
	for _, row := range lines[2:4] {
		f := strings.Fields(row)
		if got := strings.Join(f[len(f)-3:], " "); got != "4.0 1 3.0" {
			t.Errorf("row %q ends %q, want 4.0 1 3.0", row, got)
		}
	}
}
