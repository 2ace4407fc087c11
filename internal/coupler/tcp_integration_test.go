package coupler_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
)

// TestCoupledRunOverTCP drives the complete stack — rendezvous, TCP world,
// MPH handshake, comm joins, M-to-N transfers, flux merge, diagnostics
// broadcast — on the multi-process transport (each rank is an endpoint
// with its own TCP wiring, exactly as an mphrun-launched process has).
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

	rv, err := bootstrap.NewRendezvous(world)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(60 * time.Second) }()

	errs := make([]error, world)
	diags := make([]*coupler.Diagnostics, world)
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
