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
