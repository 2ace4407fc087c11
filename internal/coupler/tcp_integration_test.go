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
)

// runCoupledOverTCP runs the five-component job on the multi-process
// transport inside this process — each rank an endpoint with its own TCP
// wiring, exactly as an mphrun-launched process has — and returns every
// rank's diagnostics and its matching engine's final counters.
func runCoupledOverTCP(t *testing.T, cfg coupler.Config) ([]*coupler.Diagnostics, []perf.EngineSnap) {
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
	engines := make([]perf.EngineSnap, world)
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
			engines[rank] = env.Perf().Snapshot().Engine
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
	return diags, engines
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
	inproc := make([]*coupler.Diagnostics, 1)
	err = mpi.RunWorld(world, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(ccsmReg), ccsmLaunch(c.Rank()))
		if err != nil {
			return err
		}
		d, err := coupler.RunCoupled(s, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			inproc[0] = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Periods; p++ {
		if inproc[0].AtmMean[p] != ref.AtmMean[p] {
			t.Fatalf("transport mismatch at period %d: %v vs %v", p, inproc[0].AtmMean[p], ref.AtmMean[p])
		}
	}
}

// TestCoupledPeriodAllocBudget is the allocation guard of the whole
// small-message period: the 48x24 job of the benchmark's couple_fine
// workload, all ten ranks in this process over TCP loopback, run short and
// run long; what the extra periods allocate, job-wide, is the steady state.
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
	allocated := func(periods int) (uint64, []perf.EngineSnap) {
		cfg := coupler.Config{Grid: mustGrid(t, 48, 24), Periods: periods, SubSteps: 1, Dt: 0.5,
			Names: coupler.DefaultNames()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, engines := runCoupledOverTCP(t, cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, engines
	}
	const short, long = 20, 220
	allocated(short) // first use of the process: pools, lazily built tables
	base, _ := allocated(short)
	total, engines := allocated(long)
	per := (float64(total) - float64(base)) / (long - short)
	t.Logf("%.0f B allocated per coupled period, ten ranks together", per)
	if per > 10<<10 {
		t.Errorf("a coupled period allocates %.0f B over the ten ranks, budget 10240 (a per-message buffer, record or operand crept back)", per)
	}
	const maxDepth = 16
	umq, prq := 0, 0
	for r, e := range engines {
		umq, prq = max(umq, e.UMQHighWater), max(prq, e.PRQHighWater)
		if e.UMQHighWater > maxDepth || e.PRQHighWater > maxDepth {
			t.Errorf("rank %d queued %d unexpected messages and %d posted receives at once, budget %d each (the engine walks its queues)",
				r, e.UMQHighWater, e.PRQHighWater, maxDepth)
		}
	}
	t.Logf("deepest queues over the ranks: %d unexpected, %d posted", umq, prq)
}
