package main

import (
	"math"
	"sort"
	"time"

	"mph/benchmark/job"
	"mph/internal/grid"
	"mph/internal/registry"
	"mph/internal/xfer"
)

// metric describes one reported number. bound is the share of the baseline's
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metric struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

// endToEnd is what a user of a coupled job sees and this machine can resolve;
// README.md says why the whole-job times are not here. BENCHMARK.json repeats
// this table; the smoke test keeps the two equal.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
}

// jobNumbers are the numbers endToEndOf derives for one job. An untraced run
// reports those of endToEnd, a traced run the rest (from its untraced jobs).
var jobNumbers = []metric{
	{name: "setup_s", unit: "s"},
	{name: "job_wall_s", unit: "s"},
	{name: "period_ms", unit: "ms"},
	{name: "cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer lists the per-layer metrics in README order.
var perLayer = []metric{
	{name: "job_wall_s", unit: "s"},
	{name: "period_ms", unit: "ms"},
	{name: "cpu_s", unit: "s"},
	{name: "mpirun.spawn_ms", unit: "ms"},
	{name: "mpirun.wire_ms", unit: "ms"},
	{name: "mpirun.teardown_ms", unit: "ms"},
	{name: "mpirun.launch_failures", unit: "count"},
	{name: "registry.parse_us", unit: "us"},
	{name: "core.handshake_ms", unit: "ms"},
	{name: "core.join_ms", unit: "ms"},
	{name: "core.comm_splits", unit: "count"},
	{name: "core.comm_joins", unit: "count"},
	{name: "xfer.to_coupler_ms", unit: "ms"},
	{name: "xfer.to_model_ms", unit: "ms"},
	{name: "xfer.share", unit: "ratio"},
	{name: "xfer.bytes", unit: "bytes"},
	{name: "xfer.msgs", unit: "count"},
	{name: "mpi.allreduce_ms", unit: "ms"},
	{name: "mpi.p2p_ms", unit: "ms"},
	{name: "mpi.coll_tree", unit: "count"},
	{name: "mpi.coll_ring", unit: "count"},
	{name: "mpi.coll_hier", unit: "count"},
	{name: "mpi.sent_msgs", unit: "count"},
	{name: "mpi.sent_bytes", unit: "bytes"},
	{name: "mpi.unexpected_share", unit: "ratio"},
	{name: "mpi.umq_high_water", unit: "count"},
	{name: "tcpnet.frames_out", unit: "count"},
	{name: "tcpnet.bytes_out", unit: "bytes"},
	{name: "tcpnet.rts_out", unit: "count"},
	{name: "tcpnet.eager_msgs", unit: "count"},
	{name: "tcpnet.shm_rdata_out", unit: "count"},
	{name: "tcpnet.shm_bytes_out", unit: "bytes"},
	{name: "tcpnet.shm_fallbacks", unit: "count"},
	{name: "tcpnet.xhost_bytes_out", unit: "bytes"},
	{name: "tcpnet.dial_retries", unit: "count"},
	{name: "tcpnet.rtt_us_1k", unit: "us"},
	{name: "tcpnet.bw_mbs_1m", unit: "MB/s", higher: true},
	{name: "model.step_ms", unit: "ms"},
	{name: "model.step_cpu_share", unit: "ratio"},
	{name: "model.cell_steps", unit: "count"},
	{name: "model.imbalance", unit: "ratio"},
	{name: "coupler.wait_model_ms", unit: "ms"},
	{name: "coupler.period_ms_p50", unit: "ms"},
	{name: "coupler.period_ms_p95", unit: "ms"},
	{name: "coupler.self_ms", unit: "ms"},
	{name: "perf.trace_overhead_pct", unit: "%"},
	{name: "perf.trace_mirror_diverged", unit: "count"},
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// endToEndOf derives one job's end-to-end numbers from the driver's two marks
// and the ranks' four.
func endToEndOf(res *jobResult, periods int) map[string]float64 {
	var lastSetup, lastLoopEnd, maxRSS int64
	for _, rep := range res.reports {
		lastSetup = max(lastSetup, rep.Setup)
		lastLoopEnd = max(lastLoopEnd, rep.LoopEnd)
		maxRSS = max(maxRSS, rep.MaxRSSKB)
	}
	return map[string]float64{
		"setup_s":     float64(lastSetup-res.launch.UnixNano()) / 1e9,
		"job_wall_s":  res.ret.Sub(res.launch).Seconds(),
		"period_ms":   ms(lastLoopEnd-lastSetup) / float64(periods),
		"cpu_s":       res.cpuS,
		"peak_rss_mb": float64(maxRSS) / 1024,
	}
}

// sumSpans adds the durations (and CPU) of a rank's spans of one name.
func sumSpans(spans []job.Span, name string) (wall, cpu int64) {
	for _, s := range spans {
		if s.Name == name {
			wall += s.End - s.Start
			cpu += s.CPU
		}
	}
	return wall, cpu
}

// perLayerOf attributes one traced job to the layers. Times are span sums on
// the coupler root — the rank every period waits for — except the set-up
// spans and model.step, which take the slowest rank; counts are summed over
// the ranks' perf snapshots. periodsMS receives the coupler root's per-period
// durations.
func perLayerOf(w workload, res *jobResult, periodsMS *[]float64) map[string]float64 {
	m := make(map[string]float64)
	launch := res.launch.UnixNano()

	var lastMain, lastLoopEnd, wire, handshake, join int64
	var root *job.Report
	hosts := make([]string, len(res.reports))
	for i, rep := range res.reports {
		hosts[i] = rep.Snap.Host
		lastMain = max(lastMain, rep.Main)
		lastLoopEnd = max(lastLoopEnd, rep.LoopEnd)
		wire = max(wire, rep.Wired-rep.Main)
		handshake = max(handshake, rep.Setup-rep.Wired)
		j, _ := sumSpans(rep.Spans, job.SpanJoin)
		join = max(join, j)
		if rep.Diag != nil {
			root = rep
		}
	}
	m["mpirun.spawn_ms"] = ms(lastMain - launch)
	m["mpirun.wire_ms"] = ms(wire)
	m["mpirun.teardown_ms"] = ms(res.ret.UnixNano() - lastLoopEnd)
	m["core.handshake_ms"] = ms(handshake)
	m["core.join_ms"] = ms(join)

	// Model stepping: per rank, and when the slowest rank finished each period.
	stepEnd := make([]int64, w.periods)
	compStep := make(map[string]int64) // component -> slowest rank's step time
	var stepMax, stepCPU int64
	for _, rep := range res.reports {
		wall, cpu := sumSpans(rep.Spans, job.SpanStep)
		stepMax = max(stepMax, wall)
		stepCPU += cpu
		if wall > 0 {
			compStep[rep.Snap.Component] = max(compStep[rep.Snap.Component], wall)
		}
		for _, s := range rep.Spans {
			if s.Name == job.SpanStep {
				stepEnd[s.Period] = max(stepEnd[s.Period], s.End)
			}
		}
	}
	m["model.step_ms"] = ms(stepMax)
	m["model.step_cpu_share"] = float64(stepCPU) / 1e9 / res.cpuS
	m["model.cell_steps"] = float64(w.nlat * w.nlon * w.substeps * w.periods * len(modelComponents))
	var stepSum, stepWorst float64
	for _, v := range compStep {
		stepSum += float64(v)
		stepWorst = math.Max(stepWorst, float64(v))
	}
	if stepWorst > 0 {
		m["model.imbalance"] = 1 - stepSum/float64(len(compStep))/stepWorst
	}

	// The coupler root's periods. The part of a to_coupler span that lies
	// before the slowest model rank finished stepping is the coupler waiting
	// for the models, not xfer doing work.
	var period, children, toCoupler, toModel, waitModel int64
	for _, s := range root.Spans {
		d := s.End - s.Start
		switch s.Name {
		case job.SpanPeriod:
			period += d
			*periodsMS = append(*periodsMS, ms(d))
			continue
		case job.SpanToCoupler:
			wait := min(max(stepEnd[s.Period]-s.Start, 0), d)
			waitModel += wait
			toCoupler += d - wait
		case job.SpanToModel:
			toModel += d
		}
		if s.Period >= 0 {
			children += d
		}
	}
	allreduce, _ := sumSpans(root.Spans, job.SpanAllreduce)
	p2p, _ := sumSpans(root.Spans, job.SpanP2P)
	m["xfer.to_coupler_ms"] = ms(toCoupler)
	m["xfer.to_model_ms"] = ms(toModel)
	m["xfer.share"] = float64(toCoupler+toModel) / float64(period)
	m["coupler.wait_model_ms"] = ms(waitModel)
	m["coupler.self_ms"] = ms(period - children)
	m["mpi.allreduce_ms"] = ms(allreduce)
	m["mpi.p2p_ms"] = ms(p2p)

	// Computed from the routers' plans, not measured: 8 bytes a cell, both
	// directions of every link, every period.
	g, _ := grid.New(w.nlat, w.nlon)
	cplDecomp, _ := grid.NewDecomp(g, w.ranksOf("coupler"))
	for _, name := range modelComponents {
		md, _ := grid.NewDecomp(g, w.ranksOf(name))
		for _, pair := range [][2]*grid.Decomp{{md, cplDecomp}, {cplDecomp, md}} {
			if r, err := xfer.NewRouter(pair[0], pair[1]); err == nil {
				cells, msgs := r.Volume()
				m["xfer.bytes"] += float64(8 * cells * w.periods)
				m["xfer.msgs"] += float64(msgs * w.periods)
			}
		}
	}

	var matchUnexpected, matchPosted uint64
	for _, rep := range res.reports {
		sn := rep.Snap
		m["core.comm_splits"] += float64(sn.CommSplits)
		m["core.comm_joins"] += float64(sn.CommJoins)
		for _, c := range sn.Collectives {
			m["mpi.coll_tree"] += float64(c.Tree)
			m["mpi.coll_ring"] += float64(c.Ring)
			m["mpi.coll_hier"] += float64(c.Hier)
		}
		m["mpi.sent_msgs"] += float64(sn.TotalSentMsgs)
		m["mpi.sent_bytes"] += float64(sn.TotalSentBytes)
		matchUnexpected += sn.Engine.MatchesUnexpected
		matchPosted += sn.Engine.MatchesPosted
		m["mpi.umq_high_water"] = math.Max(m["mpi.umq_high_water"], float64(sn.Engine.UMQHighWater))
		m["tcpnet.frames_out"] += float64(sn.Net.FramesOut)
		m["tcpnet.bytes_out"] += float64(sn.Net.BytesOut)
		m["tcpnet.rts_out"] += float64(sn.Net.RTSOut)
		m["tcpnet.shm_rdata_out"] += float64(sn.Net.ShmRDataOut)
		m["tcpnet.shm_bytes_out"] += float64(sn.Net.ShmBytesOut)
		m["tcpnet.shm_fallbacks"] += float64(sn.Net.ShmFallbacks)
		m["tcpnet.dial_retries"] += float64(sn.Net.DialRetries)
		for peer, b := range sn.SentBytes {
			if hosts[peer] != sn.Host {
				m["tcpnet.xhost_bytes_out"] += float64(b)
			}
		}
		if rep.Probe != nil {
			m["tcpnet.rtt_us_1k"] = rep.Probe.RTTus1K
			m["tcpnet.bw_mbs_1m"] = rep.Probe.BWMBs1M
		}
	}
	m["tcpnet.eager_msgs"] = m["mpi.sent_msgs"] - m["tcpnet.rts_out"]
	if all := matchUnexpected + matchPosted; all > 0 {
		m["mpi.unexpected_share"] = float64(matchUnexpected) / float64(all)
	}
	return m
}

// ranksOf returns the rank count of a named component.
func (w workload) ranksOf(name string) int {
	for _, exe := range w.exes {
		for _, c := range exe {
			if c.name == name {
				return c.ranks
			}
		}
	}
	return 0
}

// registryParseUS times registry.Parse on the workload's registration text in
// isolation: the median of 200 parses, in µs.
func registryParseUS(w workload) float64 {
	text := w.registration()
	us := make([]float64, 200)
	for i := range us {
		t0 := time.Now()
		if _, err := registry.Parse(text); err != nil {
			return 0
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// counts is what the mirror guard compares between a traced and an untraced
// job: job-wide messages, bytes and collective invocations by routing.
type counts struct {
	msgs, bytes, colls, tree, ring, hier uint64
}

func countsOf(res *jobResult) counts {
	var c counts
	for _, rep := range res.reports {
		c.msgs += rep.Snap.TotalSentMsgs
		c.bytes += rep.Snap.TotalSentBytes
		for _, cs := range rep.Snap.Collectives {
			c.colls += cs.Count
			c.tree += cs.Tree
			c.ring += cs.Ring
			c.hier += cs.Hier
		}
	}
	return c
}
