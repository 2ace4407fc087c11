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

// runCoupledOverTCP runs the job of layout l on the multi-process transport
// inside this process — each rank an endpoint with its own TCP wiring,
// exactly as an mphrun-launched process has — and returns every rank's
// diagnostics and its final performance counters. With alloc non-nil the
// ranks meet in a barrier after the handshake and after RunCoupled, and
// *alloc is what the process allocated between the two.
func runCoupledOverTCP(t *testing.T, l layout, cfg coupler.Config, alloc *uint64) ([]*coupler.Diagnostics, []perf.Snapshot) {
	t.Helper()
	world := l.size()
	rv, err := bootstrap.NewRendezvousBind("", world, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(60 * time.Second) }()

	errs := make([]error, world)
	diags := make([]*coupler.Diagnostics, world)
	snaps := make([]perf.Snapshot, world)
	var before, after runtime.MemStats
	// measure is a barrier at which rank 0 reads the process's allocation
	// counters into ms, and a second one that holds the others meanwhile.
	measure := func(c *mpi.Comm, ms *runtime.MemStats) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(ms)
		}
		return c.Barrier()
	}
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
			s, err := core.SingleComponentSetup(c, core.TextSource(ccsmReg), l.launch(rank))
			if err != nil {
				errs[rank] = err
				return
			}
			if alloc != nil {
				if errs[rank] = measure(c, &before); errs[rank] != nil {
					return
				}
			}
			d, err := coupler.RunCoupled(s, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			if alloc != nil {
				if errs[rank] = measure(c, &after); errs[rank] != nil {
					return
				}
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
	if alloc != nil {
		*alloc = after.TotalAlloc - before.TotalAlloc
	}
	return diags, snaps
}

// runCoupledInProcess runs the same job on the in-process transport and
// returns world rank 0's diagnostics.
func runCoupledInProcess(t *testing.T, l layout, cfg coupler.Config) *coupler.Diagnostics {
	t.Helper()
	var d0 *coupler.Diagnostics
	err := mpi.RunWorld(l.size(), func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(ccsmReg), l.launch(c.Rank()))
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

// oneBuffer fails t unless d's six series are the consecutive views of one
// 6×periods buffer that the diagnostics broadcast moves.
func oneBuffer(t *testing.T, d *coupler.Diagnostics, periods int) {
	t.Helper()
	if cap(d.AtmMean) < 6*periods {
		t.Fatalf("the first series has capacity %d, want the whole %d-value buffer", cap(d.AtmMean), 6*periods)
	}
	all := d.AtmMean[:6*periods]
	for k, xs := range [6][]float64{d.AtmMean, d.OcnMean, d.LandMean, d.IceMean, d.Energy, d.FluxImbalance} {
		if len(xs) != periods || &xs[0] != &all[k*periods] {
			t.Fatalf("series %d: %d values at %p, want %d at %p in the buffer", k, len(xs), &xs[0], periods, &all[k*periods])
		}
	}
}

// TestCoupledRunOverTCP drives the complete stack — rendezvous, TCP world,
// MPH handshake, comm joins, M-to-N transfers, flux merge, diagnostics
// broadcast — on the multi-process transport. Every rank returns its
// diagnostics in one buffer of its own, received in place (or, on the
// coupler ranks, recorded in), bit for bit the in-process run's.
func TestCoupledRunOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	g, err := grid.New(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := coupler.Config{Grid: g, Periods: 3, SubSteps: 2, Dt: 0.5,
		Names: coupler.DefaultNames()}
	diags, _ := runCoupledOverTCP(t, ccsmLayout, cfg, nil)

	want := runCoupledInProcess(t, ccsmLayout, cfg)
	for r, d := range diags {
		oneBuffer(t, d, cfg.Periods)
		sameBits(t, d, want)
		for o := 0; o < r; o++ {
			if &d.AtmMean[0] == &diags[o].AtmMean[0] {
				t.Fatalf("ranks %d and %d share a diagnostics buffer", o, r)
			}
		}
	}
	for p := 0; p < cfg.Periods; p++ {
		if math.Abs(want.FluxImbalance[p]) > 1e-6 {
			t.Fatalf("period %d imbalance %g", p, want.FluxImbalance[p])
		}
	}
}

// TestCoupledRunOverTCPRendezvous is TestCoupledRunOverTCP on the benchmark's
// couple_bulk grid, 384x192, where every exchange piece is above the eager
// threshold and so travels RTS → CTS → payload, one message a pair. The
// coupler folds land and ocean as they come off the connection, fills their
// increments as they go out and sends from the slabs it writes over, and a
// model folds its increment into its state one segment at a time, posting
// each only once the one before it is folded in; this run is the one that
// leans on "a rendezvous send is done with its buffer when it returns", on
// no fold running after its receive returned, and on the order of those
// posts (DESIGN.md §12), and the check suite repeats it under the race
// detector. Two layouts: the canonical one, where the middle atmosphere rank
// takes its increment from both coupler ranks, and one with a 3-rank
// coupler, where the single ice rank takes segments from three.
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
	for _, tc := range []struct {
		l    layout
		slot int // a model whose rank takes its increment in several segments
	}{{ccsmLayout, 0}, {layout{3, 2, 2, 1, 3}, 3}} {
		// Every piece of every link, both directions, is rendezvous-sized.
		cd, err := grid.NewDecomp(g, tc.l[4])
		if err != nil {
			t.Fatal(err)
		}
		pieces, most := 0, 0
		for slot, size := range tc.l[:4] {
			md, err := grid.NewDecomp(g, size)
			if err != nil {
				t.Fatal(err)
			}
			r, err := xfer.NewRouter(cd, md)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < md.P; q++ {
				segs := r.RecvPlan(q)
				for _, seg := range segs {
					if bytes := 8 * seg.Cells(g); bytes < tcpnet.DefaultEagerThreshold {
						t.Fatalf("layout %v: a %d-rank model's piece %+v is %d bytes, under the %d-byte eager threshold",
							tc.l, size, seg, bytes, tcpnet.DefaultEagerThreshold)
					}
					pieces++
				}
				if slot == tc.slot {
					most = max(most, len(segs))
				}
			}
		}
		if most < 2 {
			t.Fatalf("layout %v: no rank of model %d takes more than %d increment segment", tc.l, tc.slot, most)
		}

		diags, snaps := runCoupledOverTCP(t, tc.l, cfg, nil)
		var rts uint64
		for _, s := range snaps {
			rts += s.Net.RTSOut
		}
		// The up and down pieces are the same intersections; nothing else a
		// period sends (halo rows, reports, allreduces) is near the threshold.
		if want := uint64(2 * pieces * cfg.Periods); rts != want {
			t.Errorf("layout %v: %d rendezvous sends job-wide, want %d (%d pieces a direction, %d periods)",
				tc.l, rts, want, pieces, cfg.Periods)
		}
		sameBits(t, diags[0], runCoupledInProcess(t, tc.l, cfg))
	}
}

// TestVolumeCountsSentMessages: a period sends, between model ranks and
// coupler ranks, exactly the messages Router.Volume counts for the eight
// transfers, both directions of each link, plus the two conservation
// reports — the count the benchmark's xfer.msgs is computed from. A
// period's count is the difference between a two-period and a one-period
// run over TCP, which share everything else. On the couple_bulk grid every
// band range two processors share is rendezvous-sized and moves as one
// message, and nothing else is, so the RTSs differ by the same count without
// the reports.
func TestVolumeCountsSentMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	g := mustGrid(t, 384, 192)
	cd, err := grid.NewDecomp(g, ccsmLayout[4])
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, size := range ccsmLayout[:4] {
		md, err := grid.NewDecomp(g, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [2][2]*grid.Decomp{{md, cd}, {cd, md}} {
			r, err := xfer.NewRouter(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			_, msgs := r.Volume()
			want += msgs
		}
	}
	couplerRank := ccsmLayout.size() - ccsmLayout[4]
	// run returns the messages sent across the model/coupler divide and the
	// RTSs sent, job-wide, by a run of the given number of periods.
	run := func(periods int) (across, rts int) {
		cfg := coupler.Config{Grid: g, Periods: periods, SubSteps: 1, Dt: 0.5, Names: coupler.DefaultNames()}
		_, snaps := runCoupledOverTCP(t, ccsmLayout, cfg, nil)
		for r, s := range snaps {
			rts += int(s.Net.RTSOut)
			for peer, n := range s.SentMsgs {
				if (r < couplerRank) != (peer < couplerRank) {
					across += int(n)
				}
			}
		}
		return across, rts
	}
	across1, rts1 := run(1)
	across2, rts2 := run(2)
	if got := across2 - across1; got != want+2 {
		t.Errorf("a period sends %d messages between model and coupler ranks, want %d (Volume's %d and 2 reports)", got, want+2, want)
	}
	if got := rts2 - rts1; got != want {
		t.Errorf("a period sends %d RTSs, want Volume's %d", got, want)
	}
	if want != 20 {
		t.Errorf("Volume counts %d messages a period on the canonical layout, want 20 (one a pair)", want)
	}
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
		_, snaps := runCoupledOverTCP(t, ccsmLayout, cfg, nil)
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
// are reused, the callers keep their operands and every allreduce's result
// lands in its operand, the diagnostics are recorded in one buffer a rank
// and received into it: a period stays under 1.5 KiB summed over the ten
// ranks (the parent of this test's commit: 1,874–2,005 B, the allreduce
// results and the diagnostics series growing on every rank).
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
	if per > 1536 {
		t.Errorf("a coupled period allocates %.0f B over the ten ranks, budget 1536 (a per-message buffer, record, operand or result crept back)", per)
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

// TestCoupledSlabBudget bounds the grid memory of the coupled exchange: what
// the ten ranks of the canonical job allocate together from NewLink through
// the end of the first period, on the couple_bulk grid, where the slabs
// dominate. The budget is the slab arithmetic of DESIGN.md §12 — every
// model's state, two slabs a coupler rank, and on every rank the one
// scratch buffer (mpi.PieceBytes) its transport folds and fills rendezvous
// payloads through, since every band range two processors share is
// rendezvous-sized here — plus a slack for what the first period's messages
// and the links' plans allocate once. No rank holds a buffer for a segment.
func TestCoupledSlabBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("opens many sockets")
	}
	g := mustGrid(t, 384, 192)
	cfg := coupler.Config{Grid: g, Periods: 1, SubSteps: 1, Dt: 0.5,
		Names: coupler.DefaultNames()}
	slabs := 8 * (4*g.Cells() + // the four models' states
		2*g.Cells()) // two slabs on every coupler rank
	scratch := ccsmLayout.size() * mpi.PieceBytes
	const slack = 384 << 10
	budget := uint64(slabs + scratch + slack)

	var alloc uint64
	runCoupledOverTCP(t, ccsmLayout, cfg, &alloc)
	t.Logf("%d B allocated from NewLink through the first period, ten ranks together; slabs %d B, scratch %d B, budget %d B", alloc, slabs, scratch, budget)
	if alloc > budget {
		t.Errorf("the coupled exchange allocates %d B over the ten ranks, budget %d (%d B of slabs + %d B of scratch + %d B slack): a slab or a segment buffer crept back",
			alloc, budget, slabs, scratch, slack)
	}
}
