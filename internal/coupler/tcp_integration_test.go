package coupler_test

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/mpi/tcpnet"
	"mph/internal/xfer"
)

// runCoupledOverTCP runs the five-component job on the multi-process
// transport inside this process — each rank an endpoint with its own TCP
// wiring, exactly as an mphrun-launched process has — and returns every
// rank's diagnostics and its final performance counters.
func runCoupledOverTCP(t *testing.T, cfg coupler.Config) ([]*coupler.Diagnostics, []perf.Snapshot) {
	t.Helper()
	const world = ccsmWorldSize
	rv, err := bootstrap.NewRendezvous(world)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(60 * time.Second) }()

	errs := make([]error, world)
	diags := make([]*coupler.Diagnostics, world)
	snaps := make([]perf.Snapshot, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			env, err := tcpnet.Init(rank, world, rv.Advertised())
			if err != nil {
				errs[rank] = err
				return
			}
			defer env.Close()
			c := mpi.WorldComm(env)
			s, err := core.SingleComponentSetup(c, core.TextSource(ccsmReg), ccsmLaunch(rank))
			if err != nil {
				errs[rank] = err
				return
			}
			d, err := coupler.RunCoupled(s, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			diags[rank] = d
			errs[rank] = c.Barrier()
			snaps[rank] = env.Perf().Snapshot()
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("TCP coupled run watchdog expired")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return diags, snaps
}

// runCoupledInProcess runs the same job on the in-process transport and
// returns world rank 0's diagnostics.
func runCoupledInProcess(t *testing.T, cfg coupler.Config) *coupler.Diagnostics {
	t.Helper()
	var d0 *coupler.Diagnostics
	err := mpi.RunWorld(ccsmWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(ccsmReg), ccsmLaunch(c.Rank()))
		if err != nil {
			return err
		}
		d, err := coupler.RunCoupled(s, cfg)
		if c.Rank() == 0 {
			d0 = d
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return d0
}

// sameBits fails t unless every series of got equals want's bit for bit.
func sameBits(t *testing.T, got, want *coupler.Diagnostics) {
	t.Helper()
	series := func(d *coupler.Diagnostics) [6][]float64 {
		return [6][]float64{d.AtmMean, d.OcnMean, d.LandMean, d.IceMean, d.Energy, d.FluxImbalance}
	}
	g, w := series(got), series(want)
	for k := range w {
		if len(g[k]) != len(w[k]) {
			t.Fatalf("series %d: %d periods, want %d", k, len(g[k]), len(w[k]))
		}
		for p := range w[k] {
			if math.Float64bits(g[k][p]) != math.Float64bits(w[k][p]) {
				t.Fatalf("series %d period %d: %v, want %v", k, p, g[k][p], w[k][p])
			}
		}
	}
}

// TestCoupledRunOverTCP drives the complete stack — rendezvous, TCP world,
// MPH handshake, comm joins, M-to-N transfers, flux merge, diagnostics
// broadcast — on the multi-process transport.
func TestCoupledRunOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	const world = ccsmWorldSize
	g, err := grid.New(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := coupler.Config{Grid: g, Periods: 3, SubSteps: 2, Dt: 0.5,
		Names: coupler.DefaultNames()}
	diags, _ := runCoupledOverTCP(t, cfg)

	// Every rank got identical diagnostics, and they are sane.
	ref := diags[0]
	if len(ref.AtmMean) != cfg.Periods {
		t.Fatalf("series length %d", len(ref.AtmMean))
	}
	for r := 1; r < world; r++ {
		for p := 0; p < cfg.Periods; p++ {
			if diags[r].AtmMean[p] != ref.AtmMean[p] || diags[r].Energy[p] != ref.Energy[p] {
				t.Fatalf("rank %d diagnostics differ at period %d", r, p)
			}
		}
	}
	for p := 0; p < cfg.Periods; p++ {
		if math.Abs(ref.FluxImbalance[p]) > 1e-6 {
			t.Fatalf("period %d imbalance %g", p, ref.FluxImbalance[p])
		}
	}
	// TCP and in-process transports must agree bit-for-bit: the coupled
	// system is deterministic.
	sameBits(t, ref, runCoupledInProcess(t, cfg))
}

// TestCoupledRunOverTCPRendezvous is TestCoupledRunOverTCP on the benchmark's
// couple_bulk grid, 384x192, where every exchange piece is above the eager
// threshold and so travels RTS → CTS → payload. The coupler sends each
// increment from the slab its next up-receive lands in; this run is the one
// that leans on "a rendezvous send is done with its buffer when it returns",
// and the check suite repeats it under the race detector.
func TestCoupledRunOverTCPRendezvous(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	g, err := grid.New(384, 192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := coupler.Config{Grid: g, Periods: 3, SubSteps: 1, Dt: 0.5,
		Names: coupler.DefaultNames()}

	// Every piece of every link, both directions, is rendezvous-sized.
	cd, err := grid.NewDecomp(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	pieces := 0
	for _, size := range []int{3, 2, 2, 1} { // atmosphere, ocean, land, ice
		md, err := grid.NewDecomp(g, size)
		if err != nil {
			t.Fatal(err)
		}
		r, err := xfer.NewRouter(md, cd)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < md.P; p++ {
			for _, seg := range r.SendPlan(p) {
				if bytes := 8 * seg.Cells(g); bytes < tcpnet.DefaultEagerThreshold {
					t.Fatalf("a %d-rank model's piece %+v is %d bytes, under the %d-byte eager threshold",
						size, seg, bytes, tcpnet.DefaultEagerThreshold)
				}
				pieces++
			}
		}
	}

	diags, snaps := runCoupledOverTCP(t, cfg)
	var rts uint64
	for _, s := range snaps {
		rts += s.Net.RTSOut
	}
	// The up and down pieces are the same intersections; nothing else a
	// period sends (halo rows, reports, allreduces) is near the threshold.
	if want := uint64(2 * pieces * cfg.Periods); rts != want {
		t.Errorf("%d rendezvous sends job-wide, want %d (%d pieces a direction, %d periods)", rts, want, pieces, cfg.Periods)
	}
	sameBits(t, diags[0], runCoupledInProcess(t, cfg))
}

// periodAlloc runs the benchmark's coupled job on an nlat x nlon grid, all
// ten ranks in this process over TCP loopback, for short and then long
// periods, and returns what each period past the short run allocates, summed
// over the ten ranks — the steady state: the first short run pays the
// process's first use of pools and lazily built tables, the second is the
// base the long run is measured against. It also returns the long run's
// final counters.
func periodAlloc(t *testing.T, nlat, nlon, short, long int) (float64, []perf.Snapshot) {
	t.Helper()
	allocated := func(periods int) (uint64, []perf.Snapshot) {
		cfg := coupler.Config{Grid: mustGrid(t, nlat, nlon), Periods: periods, SubSteps: 1, Dt: 0.5,
			Names: coupler.DefaultNames()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, snaps := runCoupledOverTCP(t, cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, snaps
	}
	allocated(short)
	base, _ := allocated(short)
	total, snaps := allocated(long)
	return (float64(total) - float64(base)) / float64(long-short), snaps
}

// TestCoupledPeriodAllocBudget is the allocation guard of the whole
// small-message period: the 48x24 job of the benchmark's couple_fine
// workload, run short and run long (periodAlloc).
// Eager payloads land through recycled buffers, posted records and requests
// are reused, the callers keep their operands: a period stays under 10 KiB
// summed over the ten ranks (the parent of this test's commit: 98 KB), most
// of it the diagnostics series growing by a period on every rank.
//
// The long run also pins the premise of the matching engine's plain FIFO
// queues (DESIGN.md §7): no rank ever holds more than a handful of messages
// or receives queued (measured: 8 unexpected, 5 posted).
func TestCoupledPeriodAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	per, snaps := periodAlloc(t, 48, 24, 20, 220)
	t.Logf("%.0f B allocated per coupled period, ten ranks together", per)
	if per > 10<<10 {
		t.Errorf("a coupled period allocates %.0f B over the ten ranks, budget 10240 (a per-message buffer, record or operand crept back)", per)
	}
	const maxDepth = 16
	umq, prq := 0, 0
	for r, s := range snaps {
		e := s.Engine
		umq, prq = max(umq, e.UMQHighWater), max(prq, e.PRQHighWater)
		if e.UMQHighWater > maxDepth || e.PRQHighWater > maxDepth {
			t.Errorf("rank %d queued %d unexpected messages and %d posted receives at once, budget %d each (the engine walks its queues)",
				r, e.UMQHighWater, e.PRQHighWater, maxDepth)
		}
	}
	t.Logf("deepest queues over the ranks: %d unexpected, %d posted", umq, prq)
}

// TestCoupledBulkPeriodAllocBudget is the same guard on the benchmark's
// couple_bulk grid, 384x192, where every exchange piece travels RTS → CTS →
// payload (TestCoupledRunOverTCPRendezvous): the placeholder, its rendezvous
// record and the sender's CTS wait are recycled, and no goroutine is started
// per RTS, so a period stays under 3 KiB over the ten ranks (the parent of
// this test's commit: 15,983 B, ≈ 580 B a rendezvous).
func TestCoupledBulkPeriodAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	per, snaps := periodAlloc(t, 384, 192, 20, 220)
	var rts uint64
	for _, s := range snaps {
		rts += s.Net.RTSOut
	}
	t.Logf("%.0f B allocated per bulk coupled period, ten ranks together (%d rendezvous sends in the long run)", per, rts)
	if rts == 0 {
		t.Fatal("no rendezvous traffic: the grid no longer exercises the path this test guards")
	}
	if per > 3<<10 {
		t.Errorf("a bulk coupled period allocates %.0f B over the ten ranks, budget 3072 (a per-rendezvous record, channel or goroutine crept back)", per)
	}
}
