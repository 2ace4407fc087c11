package perf

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSnapshotDerivedTotals(t *testing.T) {
	r := NewRank(1, 3)
	r.SetComponent("ocean")
	r.SetEngineCollector(func() EngineSnap {
		return EngineSnap{
			UMQDepth: 2, UMQHighWater: 7, PRQDepth: 1, PRQHighWater: 4,
			MatchesUnexpected: 10, MatchesPosted: 5,
			RecvMsgs:  []uint64{4, 0, 11},
			RecvBytes: []uint64{400, 0, 1100},
		}
	})
	r.SetSentCollector(func() (msgs, bytes []uint64) {
		return []uint64{1, 0, 2}, []uint64{10, 0, 200}
	})

	s := r.Snapshot()
	if s.WorldRank != 1 || s.WorldSize != 3 || s.Component != "ocean" {
		t.Errorf("identity: %+v", s)
	}
	if s.TotalSentMsgs != 3 || s.TotalSentBytes != 210 {
		t.Errorf("sent totals %d/%d, want 3/210", s.TotalSentMsgs, s.TotalSentBytes)
	}
	if s.TotalRecvMsgs != 15 || s.TotalRecvBytes != 1500 {
		t.Errorf("recv totals %d/%d, want 15/1500", s.TotalRecvMsgs, s.TotalRecvBytes)
	}
	if s.Engine.UMQHighWater != 7 || s.Engine.MatchesUnexpected != 10 {
		t.Errorf("engine snap %+v", s.Engine)
	}
	if s.Trace.Enabled {
		t.Error("trace reported enabled without a tracer")
	}
}

func TestSnapshotWithoutCollectors(t *testing.T) {
	r := NewRank(0, 4)
	s := r.Snapshot()
	if len(s.SentMsgs) != 4 || len(s.Engine.RecvMsgs) != 4 {
		t.Errorf("per-peer arrays not sized to world: sent %d recv %d",
			len(s.SentMsgs), len(s.Engine.RecvMsgs))
	}
	if s.TotalSentMsgs != 0 || s.TotalRecvMsgs != 0 {
		t.Error("empty rank has nonzero totals")
	}
}

func TestCollectiveCountingAndNesting(t *testing.T) {
	r := NewRank(0, 1)

	r.CollExit(CollBarrier, r.CollEnter(CollBarrier))
	r.CollExit(CollAllreduce, r.CollEnter(CollAllreduce))
	r.CollExit(CollAllreduce, r.CollEnter(CollAllreduce))

	s := r.Snapshot()
	if c := s.Collectives["barrier"]; c.Count != 1 {
		t.Errorf("barrier count %d, want 1", c.Count)
	}
	if c := s.Collectives["allreduce"]; c.Count != 2 {
		t.Errorf("allreduce count %d, want 2", c.Count)
	}
	if _, ok := s.Collectives["bcast"]; ok {
		t.Error("an op never entered shows in the counters")
	}
	if s.CollNanos() < 0 {
		t.Errorf("negative cumulative latency %d", s.CollNanos())
	}
}

func TestCommOpCounters(t *testing.T) {
	r := NewRank(0, 2)
	r.CountSplit(3, 2)
	r.CountSplit(1, 1)
	r.CountDup()
	r.CountJoin(5)
	s := r.Snapshot()
	if s.CommSplits != 2 || s.CommDups != 1 || s.CommJoins != 1 {
		t.Errorf("comm ops %d/%d/%d, want 2/1/1", s.CommSplits, s.CommDups, s.CommJoins)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRank(2, 4)
	r.SetComponent("atm")
	r.Net.FramesOut.Add(9)
	r.Net.BytesOut.Add(512)
	start := r.CollEnter(CollBcast)
	r.CollExit(CollBcast, start)
	r.EnableTracer(16)

	s := r.Snapshot()
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.WorldRank != 2 || back.Component != "atm" {
		t.Errorf("identity lost: %+v", back)
	}
	if back.Net.FramesOut != 9 || back.Net.BytesOut != 512 {
		t.Errorf("net counters lost: %+v", back.Net)
	}
	if back.Collectives["bcast"].Count != 1 {
		t.Errorf("collectives lost: %+v", back.Collectives)
	}
	if !back.Trace.Enabled || back.Trace.Capacity != 16 {
		t.Errorf("trace state lost: %+v", back.Trace)
	}
}

func TestCollEnterConcurrent(t *testing.T) {
	// Distinct goroutines standing in for ranks each run their own
	// non-nested collectives against one shared Rank is NOT the model —
	// but CollEnter/CollExit must still be data-race-free when a
	// transport goroutine records alongside. Exercise under -race.
	r := NewRank(0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				start := r.CollEnter(CollBarrier)
				r.CollExit(CollBarrier, start)
				r.CountDup()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.CommDups != 400 {
		t.Errorf("dups %d, want 400", s.CommDups)
	}
	if c := s.Collectives["barrier"]; c.Count == 0 || c.Count > 400 {
		t.Errorf("barrier count %d out of range", c.Count)
	}
}

func TestPhaseAndCollOpNames(t *testing.T) {
	for _, c := range []struct {
		a, b int64
		want string
	}{
		{int64(PhaseRegistry), 0, "handshake:registry"},
		{int64(PhaseComponents), 0, "handshake:components"},
		{int64(CollBarrier), 0, "barrier"},
		{int64(CollAllreduce), int64(CollPhaseIntra), "allreduce/intra"},
		{int64(CollBcast), int64(CollPhaseFanout), "bcast/fanout"},
		{int64(CollBcast), 9, "bcast/unknown"},
		{99, 0, "unknown"},
		{-1, 0, "unknown"},
	} {
		if got := SpanName(c.a, c.b); got != c.want {
			t.Errorf("SpanName(%d, %d) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
	for op := CollOp(0); op < NumCollOps; op++ {
		if op.String() == "unknown" || op.String() == "" {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestCollObserveMax(t *testing.T) {
	var c collCounter
	for _, d := range []int64{500, 3_000, 120_000, 90_000, 3_500} {
		c.observe(d)
	}
	if got := c.count.Load(); got != 5 {
		t.Errorf("count %d, want 5", got)
	}
	if got := c.maxNS.Load(); got != 120_000 {
		t.Errorf("max %d, want 120000", got)
	}
	if got := c.ns.Load(); got != 217_000 {
		t.Errorf("total %d ns, want 217000", got)
	}
}

func TestSnapshotCollStragglerFields(t *testing.T) {
	r := NewRank(0, 2)
	start := r.CollEnter(CollBarrier)
	r.CollExit(CollBarrier, start)
	s := r.Snapshot()
	c, ok := s.Collectives["barrier"]
	if !ok {
		t.Fatal("no barrier counters")
	}
	if c.MaxNanos <= 0 {
		t.Errorf("MaxNanos %d, want > 0", c.MaxNanos)
	}
	if c.MaxNanos > c.Nanos {
		t.Errorf("MaxNanos %d above the op's total %d", c.MaxNanos, c.Nanos)
	}
}

func TestSnapshotIdentityAndClock(t *testing.T) {
	r := NewRank(1, 4)
	r.SetHost("node-c")
	r.SetClockOffset(12_345, 678)
	before := time.Now().UnixNano()
	s := r.Snapshot()
	if s.Host != "node-c" || s.PID != os.Getpid() {
		t.Errorf("identity %q/%d, want node-c/%d", s.Host, s.PID, os.Getpid())
	}
	if s.ClockOffsetNS != 12_345 || s.ClockErrBoundNS != 678 {
		t.Errorf("clock %d ±%d, want 12345 ±678", s.ClockOffsetNS, s.ClockErrBoundNS)
	}
	if s.CapturedUnixNS < before {
		t.Errorf("capture time %d before snapshot call %d", s.CapturedUnixNS, before)
	}
	if off, bound := r.ClockOffset(); off != 12_345 || bound != 678 {
		t.Errorf("ClockOffset() = %d, %d", off, bound)
	}
}

func TestNowMonotonic(t *testing.T) {
	r := NewRank(0, 1)
	a := r.Now()
	time.Sleep(time.Millisecond)
	b := r.Now()
	if b <= a {
		t.Errorf("Now not monotonic: %d then %d", a, b)
	}
}

// TestSnapshotAllocBudget: a rank's snapshot, which every telemetry report
// takes in a rank that never runs a collection, allocates under 1 KiB — its
// own slices and map; the /proc read no more than its path, and the GC-stats
// buffers once a process, at the first call (the parent of this test's
// commit: 7,216 B, 6,816 of them the read).
func TestSnapshotAllocBudget(t *testing.T) {
	r := NewRank(0, 10)
	recv, sent := make([]uint64, 10), make([]uint64, 10)
	r.SetEngineCollector(func() EngineSnap { return EngineSnap{RecvMsgs: recv, RecvBytes: recv} })
	r.SetSentCollector(func() (msgs, bytes []uint64) { return sent, sent })
	start := r.CollEnter(CollAllreduce)
	r.CollAlgo(CollAllreduce, AlgTree)
	r.CollExit(CollAllreduce, start)
	if s := r.Snapshot(); s.PeakRSSKB <= 0 {
		t.Fatalf("VmHWM read as %d kB", s.PeakRSSKB)
	}

	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		r.Snapshot()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.0f B allocated per Snapshot", per)
	if per > 1024 {
		t.Errorf("Snapshot allocates %.0f B a call, budget 1024", per)
	}
}

// TestSnapshotCountsGCCycles: two forced collections move GCCycles by
// exactly two.
func TestSnapshotCountsGCCycles(t *testing.T) {
	r := NewRank(0, 1)
	runtime.GC() // let a cycle already running finish before the count
	before := r.Snapshot().GCCycles
	runtime.GC()
	runtime.GC()
	if got := r.Snapshot().GCCycles - before; got != 2 {
		t.Errorf("two runtime.GC calls moved GCCycles by %d", got)
	}
}

// TestSnapshotConcurrent: the ranks of one process snapshot at once, each
// GCCycles read through the one process-wide GC-stats buffer, while a
// collection runs (a race here fails under -race).
func TestSnapshotConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRank(i, 4)
			for j := 0; j < 50; j++ {
				r.Snapshot()
			}
		}()
	}
	runtime.GC()
	wg.Wait()
}

// TestSnapshotAnonKB: RssAnon comes from the same read as VmHWM, so it is
// positive and no larger than the peak on Linux, and 0 where the status file
// or its line is missing.
func TestSnapshotAnonKB(t *testing.T) {
	s := NewRank(0, 1).Snapshot()
	if runtime.GOOS != "linux" {
		if s.AnonKB != 0 || s.PeakRSSKB != 0 {
			t.Errorf("no /proc, yet AnonKB %d, PeakRSSKB %d", s.AnonKB, s.PeakRSSKB)
		}
		return
	}
	if s.AnonKB <= 0 || s.AnonKB > s.PeakRSSKB {
		t.Errorf("AnonKB %d, PeakRSSKB %d: want 0 < anon <= peak", s.AnonKB, s.PeakRSSKB)
	}
	for status, want := range map[string]int64{
		"":                                     0,
		"Name:\tx\nVmHWM:\t  812 kB\n":         0,
		"VmHWM:\t 9 kB\nRssAnon:\t  1234 kB\n": 1234,
		"VmHWM:\t 9 kB\nRssAnon:\t":            0,
	} {
		if got := statusKB([]byte(status), "\nRssAnon:"); got != want {
			t.Errorf("statusKB(%q) = %d, want %d", status, got, want)
		}
	}
}
