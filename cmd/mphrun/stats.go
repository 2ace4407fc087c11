package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mph/internal/mpi/perf"
	"mph/internal/mpirun"
)

// componentSummary aggregates the snapshots of the ranks sharing one
// component name (or "rank<N>" for ranks that never completed a handshake).
type componentSummary struct {
	Name      string
	Ranks     int
	SentMsgs  uint64
	SentBytes uint64
	RecvMsgs  uint64
	RecvBytes uint64
	MaxUMQHW  int
	MaxPRQHW  int
	MaxRSSKB  int64 // largest resident-set high-water mark of any rank
	GCCycles  uint64
	AnonMB    float64 // resident anonymous memory, summed over the ranks
	CollNanos int64
}

func (c *componentSummary) add(s *perf.Snapshot) {
	c.Ranks++
	c.SentMsgs += s.TotalSentMsgs
	c.SentBytes += s.TotalSentBytes
	c.RecvMsgs += s.TotalRecvMsgs
	c.RecvBytes += s.TotalRecvBytes
	c.MaxUMQHW = max(c.MaxUMQHW, s.Engine.UMQHighWater)
	c.MaxPRQHW = max(c.MaxPRQHW, s.Engine.PRQHighWater)
	c.MaxRSSKB = max(c.MaxRSSKB, s.PeakRSSKB)
	c.GCCycles += s.GCCycles
	c.AnonMB += float64(s.AnonKB) / 1024
	c.CollNanos += s.CollNanos()
}

// summarize groups snapshots by component. The second return is the job-wide
// total row.
func summarize(snaps []perf.Snapshot) ([]componentSummary, componentSummary) {
	index := make(map[string]int)
	var out []componentSummary
	totals := componentSummary{Name: "TOTAL"}
	for i := range snaps {
		s := &snaps[i]
		name := s.Component
		if name == "" {
			name = fmt.Sprintf("rank%d", s.WorldRank)
		}
		ci, ok := index[name]
		if !ok {
			ci = len(out)
			index[name] = ci
			out = append(out, componentSummary{Name: name})
		}
		out[ci].add(s)
		totals.add(s)
	}
	return out, totals
}

// printStats renders the per-component summary table of the aggregator's
// latest reports, the totals row, the aggregator's reconciliation verdict
// (every rank's final report in, messages and bytes sent equal to those
// received: JobView.Reconciled) and the exact top-talkers table.
func printStats(w io.Writer, tele *mpirun.Telemetry) {
	snaps, view := tele.Snapshots(), tele.View()
	rows, totals := summarize(snaps)
	fmt.Fprintf(w, "mphrun: performance summary (%d rank(s))\n", totals.Ranks)
	fmt.Fprintf(w, "%-16s %5s %12s %14s %12s %14s %7s %7s %12s %11s %9s %8s\n",
		"component", "ranks", "sent msgs", "sent bytes", "recv msgs", "recv bytes", "umq-hw", "prq-hw", "coll time", "peak rss MB", "gc cycles", "anon MB")
	line := func(c componentSummary) {
		fmt.Fprintf(w, "%-16s %5d %12d %14d %12d %14d %7d %7d %12s %11.1f %9d %8.1f\n",
			c.Name, c.Ranks, c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes,
			c.MaxUMQHW, c.MaxPRQHW, time.Duration(c.CollNanos).Round(time.Microsecond), float64(c.MaxRSSKB)/1024,
			c.GCCycles, c.AnonMB)
	}
	for _, c := range rows {
		line(c)
	}
	line(totals)
	switch {
	case view.Reconciled:
		fmt.Fprintf(w, "mphrun: totals reconcile: %d messages sent == %d received\n",
			view.TotalSentMsgs, view.TotalRecvMsgs)
	case view.Finals < view.WorldSize:
		fmt.Fprintf(w, "mphrun: totals cannot reconcile: %d of %d final reports\n", view.Finals, view.WorldSize)
	default:
		fmt.Fprintf(w, "mphrun: WARNING: totals do not reconcile: %d messages (%d bytes) sent != %d (%d bytes) received\n",
			view.TotalSentMsgs, view.TotalSentBytes, view.TotalRecvMsgs, view.TotalRecvBytes)
	}
	var tree, hier uint64
	for i := range snaps {
		for _, c := range snaps[i].Collectives {
			tree += c.Tree
			hier += c.Hier
		}
	}
	if tree+hier > 0 {
		fmt.Fprintf(w, "mphrun: collective routing: tree=%d hier=%d\n", tree, hier)
	}
	var shmFrames, shmBytes, shmFallbacks uint64
	for i := range snaps {
		shmFrames += snaps[i].Net.ShmRDataOut
		shmBytes += snaps[i].Net.ShmBytesOut
		shmFallbacks += snaps[i].Net.ShmFallbacks
	}
	if shmFrames+shmFallbacks > 0 {
		fmt.Fprintf(w, "mphrun: shm channel: %d payload frame(s), %d bytes intra-host, %d fallback(s) to tcp\n",
			shmFrames, shmBytes, shmFallbacks)
	}
	if talkers := topTalkers(snaps); len(talkers) > 0 {
		fmt.Fprintf(w, "mphrun: top talkers (exact, by bytes sent)\n")
		fmt.Fprintf(w, "%-20s    %-20s %12s %14s\n", "src", "dst", "msgs", "bytes")
		for _, t := range talkers {
			fmt.Fprintf(w, "%-20s -> %-20s %12d %14d\n",
				rankLabel(snaps, t.src), rankLabel(snaps, t.dst), t.msgs, t.bytes)
		}
	}
}

// topTalkerRows is how many sender→receiver pairs the top-talkers table lists.
const topTalkerRows = 5

// talker is one sender→receiver pair's traffic.
type talker struct {
	src, dst    int
	msgs, bytes uint64
}

// topTalkers reads every sender→receiver pair that carried a message from
// the senders' per-peer counters, and returns the topTalkerRows largest by
// bytes, ties in (src, dst) order.
func topTalkers(snaps []perf.Snapshot) []talker {
	var out []talker
	for i := range snaps {
		s := &snaps[i]
		for dst := range min(len(s.SentMsgs), len(s.SentBytes)) {
			if s.SentMsgs[dst] > 0 {
				out = append(out, talker{src: s.WorldRank, dst: dst, msgs: s.SentMsgs[dst], bytes: s.SentBytes[dst]})
			}
		}
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
	return out[:min(len(out), topTalkerRows)]
}

// stragglerRow is one collective op's cross-rank wait-skew summary.
type stragglerRow struct {
	Op          string
	Calls       uint64 // most invocations any rank completed
	MinNanos    int64  // least cumulative time any rank spent in the op
	MaxNanos    int64  // most cumulative time any rank spent in the op
	SuspectRank int    // rank with MinNanos: it arrived last and waited least
	SlowestCall int64  // slowest single invocation job-wide
	SlowestRank int    // rank that observed SlowestCall
}

// stragglers computes per-op wait skew across ranks. The inversion that
// makes this work: a collective completes when the last rank arrives, so
// every rank's dwell time is dominated by waiting for that straggler — who
// itself arrives last, waits for no one, and therefore reports the LEAST
// cumulative time. Rows are sorted by skew (max−min), worst first. Ops seen
// on fewer than two ranks are skipped; there is no skew of one.
func stragglers(snaps []perf.Snapshot) []stragglerRow {
	type agg struct {
		row   stragglerRow
		ranks int
	}
	byOp := make(map[string]*agg)
	for i := range snaps {
		s := &snaps[i]
		for op, c := range s.Collectives {
			if c.Count == 0 {
				continue
			}
			a, ok := byOp[op]
			if !ok {
				a = &agg{row: stragglerRow{
					Op: op, MinNanos: c.Nanos, SuspectRank: s.WorldRank,
				}}
				byOp[op] = a
			}
			a.ranks++
			if c.Count > a.row.Calls {
				a.row.Calls = c.Count
			}
			if c.Nanos < a.row.MinNanos {
				a.row.MinNanos = c.Nanos
				a.row.SuspectRank = s.WorldRank
			}
			if c.Nanos > a.row.MaxNanos {
				a.row.MaxNanos = c.Nanos
			}
			if c.MaxNanos > a.row.SlowestCall {
				a.row.SlowestCall = c.MaxNanos
				a.row.SlowestRank = s.WorldRank
			}
		}
	}
	rows := make([]stragglerRow, 0, len(byOp))
	for _, a := range byOp {
		if a.ranks >= 2 {
			rows = append(rows, a.row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		si, sj := rows[i].MaxNanos-rows[i].MinNanos, rows[j].MaxNanos-rows[j].MinNanos
		if si != sj {
			return si > sj
		}
		return rows[i].Op < rows[j].Op
	})
	return rows
}

// rankLabel names a world rank for display: "2 (ocean)", or "2 (rank2)" for
// a rank that never reported a component.
func rankLabel(snaps []perf.Snapshot, rank int) string {
	for i := range snaps {
		if snaps[i].WorldRank == rank && snaps[i].Component != "" {
			return fmt.Sprintf("%d (%s)", rank, snaps[i].Component)
		}
	}
	return fmt.Sprintf("%d (rank%d)", rank, rank)
}

// printStragglers renders the collective wait-skew table and, when the
// telemetry handshake measured them, the worst clock offset. Silent when
// the job ran no collectives on at least two ranks.
func printStragglers(w io.Writer, snaps []perf.Snapshot) {
	rows := stragglers(snaps)
	if len(rows) > 0 {
		fmt.Fprintf(w, "mphrun: collective wait skew (suspect = least-waiting rank: it arrived last)\n")
		fmt.Fprintf(w, "%-12s %8s %12s %12s %12s %20s %20s\n",
			"op", "calls", "min wait", "max wait", "skew", "suspect", "slowest call")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %8d %12s %12s %12s %20s %20s\n",
				r.Op, r.Calls,
				time.Duration(r.MinNanos).Round(time.Microsecond),
				time.Duration(r.MaxNanos).Round(time.Microsecond),
				time.Duration(r.MaxNanos-r.MinNanos).Round(time.Microsecond),
				rankLabel(snaps, r.SuspectRank),
				fmt.Sprintf("%s @%d", time.Duration(r.SlowestCall).Round(time.Microsecond), r.SlowestRank))
		}
	}
	var worst perf.Snapshot
	synced := false
	for i := range snaps {
		s := &snaps[i]
		if s.ClockErrBoundNS == 0 && s.ClockOffsetNS == 0 {
			continue
		}
		if !synced || abs64(s.ClockOffsetNS) > abs64(worst.ClockOffsetNS) {
			worst = *s
		}
		synced = true
	}
	if synced {
		fmt.Fprintf(w, "mphrun: clock offsets vs launcher: worst %v (rank %d, ±%v)\n",
			time.Duration(worst.ClockOffsetNS), worst.WorldRank,
			time.Duration(worst.ClockErrBoundNS))
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
