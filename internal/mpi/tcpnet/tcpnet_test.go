package tcpnet_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/core"
	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
	"mph/internal/xfer"
)

// runTCPWorld boots a rendezvous plus n TCP endpoints (each endpoint is a
// goroutine standing in for an OS process; the wire path is identical) and
// runs fn per rank.
func runTCPWorld(t *testing.T, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	rv, err := bootstrap.NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			env, err := tcpnet.Init(rank, n, rv.Advertised())
			if err != nil {
				errs[rank] = err
				return
			}
			defer env.Close()
			c := mpi.WorldComm(env)
			if err := fn(c); err != nil {
				errs[rank] = err
				return
			}
			// Drain in-flight traffic before teardown.
			errs[rank] = c.Barrier()
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("TCP world watchdog expired")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCPWorld(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("over tcp"))
		}
		data, st, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "over tcp" || st.Source != 0 {
			return fmt.Errorf("got %q from %d", data, st.Source)
		}
		return nil
	})
}

func TestTCPCollectivesAndSplit(t *testing.T) {
	runTCPWorld(t, 5, func(c *mpi.Comm) error {
		sum, err := c.AllreduceInts([]int64{int64(c.Rank())}, mpi.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 10 {
			return fmt.Errorf("allreduce %d", sum[0])
		}
		sub, err := c.SplitWith([]int{0, 1, 0, 1, 0}, nil)
		if err != nil {
			return err
		}
		subSum, err := sub.AllreduceInts([]int64{1}, mpi.OpSum)
		if err != nil {
			return err
		}
		want := int64(3 - c.Rank()%2) // 3 evens, 2 odds
		if subSum[0] != want {
			return fmt.Errorf("sub allreduce %d, want %d", subSum[0], want)
		}
		return nil
	})
}

// TestTCPSsend: above the eager threshold a Send is synchronous — MPI_Ssend's
// guarantee, which this transport gives through the rendezvous: it returns
// only once the receiver has matched.
func TestTCPSsend(t *testing.T) {
	payload := []byte(strings.Repeat("sync-tcp", tcpnet.DefaultEagerThreshold/8))
	var receiving atomic.Bool
	runTCPWorld(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, payload); err != nil {
				return err
			}
			if !receiving.Load() {
				return fmt.Errorf("a rendezvous Send returned before its receive was posted")
			}
			return nil
		}
		time.Sleep(50 * time.Millisecond) // let the Send actually block
		receiving.Store(true)
		data, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(data) != string(payload) {
			return fmt.Errorf("got %d bytes", len(data))
		}
		return nil
	})
}

func TestTCPLargePayload(t *testing.T) {
	const n = 1 << 20 // 1 MiB
	runTCPWorld(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			return c.Send(1, 1, buf)
		}
		data, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(data) != n {
			return fmt.Errorf("len %d", len(data))
		}
		for i := range data {
			if data[i] != byte(i*31) {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
}

func TestTCPNonOvertaking(t *testing.T) {
	const msgs = 200
	runTCPWorld(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 3, mpi.EncodeInts([]int64{int64(i)})); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			raw, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if xs, err := mpi.DecodeInts(raw); err != nil || xs[0] != int64(i) {
				return fmt.Errorf("message %d overtaken by %v (%v)", i, xs, err)
			}
		}
		return nil
	})
}

func TestMPHHandshakeOverTCP(t *testing.T) {
	// The full MPH handshake — registry broadcast, splits, layout
	// exchange, comm join, named p2p — on the multi-process transport.
	reg := "BEGIN\natm\nocn\nEND\n"
	runTCPWorld(t, 4, func(c *mpi.Comm) error {
		name := "atm"
		if c.Rank() >= 2 {
			name = "ocn"
		}
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
		if err != nil {
			return err
		}
		if s.CompName() != name {
			return fmt.Errorf("CompName %q", s.CompName())
		}
		joined, err := s.CommJoin("atm", "ocn")
		if err != nil {
			return err
		}
		if joined.Size() != 4 {
			return fmt.Errorf("joined size %d", joined.Size())
		}
		const tag = 9
		if name == "atm" && s.LocalProcID() == 0 {
			if err := s.SendTo("ocn", 1, tag, []byte("tcp-mph")); err != nil {
				return err
			}
		}
		if name == "ocn" && s.LocalProcID() == 1 {
			data, _, err := s.RecvFrom("atm", 0, tag)
			if err != nil {
				return err
			}
			if string(data) != "tcp-mph" {
				return fmt.Errorf("got %q", data)
			}
		}
		return nil
	})
}

func TestInitBadRank(t *testing.T) {
	if _, err := tcpnet.Init(5, 2, "127.0.0.1:1"); err == nil {
		t.Fatal("rank out of range accepted")
	}
	if _, err := tcpnet.Init(-1, 2, "127.0.0.1:1"); err == nil {
		t.Fatal("negative rank accepted")
	}
}

// TestInitRejectsNames: a rank resolves no names, so a host name in any
// address it binds or dials fails Init at once, naming the variable.
func TestInitRejectsNames(t *testing.T) {
	cases := []struct{ env, value, rendezvous string }{
		{bootstrap.EnvBind, "node-a", "127.0.0.1:1"},
		{bootstrap.EnvRendezvous, "", "localhost:4000"},
	}
	for _, c := range cases {
		t.Run(c.env, func(t *testing.T) {
			if c.value != "" {
				t.Setenv(c.env, c.value)
			}
			start := time.Now()
			_, err := tcpnet.Init(0, 2, c.rendezvous)
			if err == nil || !strings.Contains(err.Error(), c.env) {
				t.Fatalf("Init: %v, want an error naming %s", err, c.env)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("Init took %v to reject a host name", d)
			}
		})
	}
}

func TestRendezvousTimeout(t *testing.T) {
	rv, err := bootstrap.NewRendezvousBind("", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only one of two ranks ever registers.
	go registerAndHangUp(rv, 0, "127.0.0.1:9")
	if err := rv.Serve(300 * time.Millisecond); err == nil {
		t.Fatal("Serve returned nil despite a missing rank")
	}
}

func TestRendezvousDuplicateRank(t *testing.T) {
	rv, err := bootstrap.NewRendezvousBind("", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rv.Serve(5 * time.Second) }()
	go registerAndHangUp(rv, 0, "a:1")
	time.Sleep(100 * time.Millisecond)
	go registerAndHangUp(rv, 0, "b:2")
	if err := <-done; err == nil {
		t.Fatal("duplicate rank accepted")
	}
}

// registerAndHangUp stands in for a rank that registers its endpoint and
// exits as soon as it has the book.
func registerAndHangUp(rv *bootstrap.Rendezvous, rank int, addr string) {
	if s, err := bootstrap.Register(rv.Advertised(), rank, bootstrap.Endpoint{Addr: addr}, 5*time.Second); err == nil {
		s.Close()
	}
}

func TestTCPSplitStorm(t *testing.T) {
	// Repeated splits and subcommunicator collectives over real sockets:
	// the context-derivation and ordering guarantees must hold identically
	// to the in-process transport.
	runTCPWorld(t, 6, func(c *mpi.Comm) error {
		for round := 0; round < 6; round++ {
			colors := make([]int, c.Size())
			for r := range colors {
				colors[r] = (r + round) % 2
			}
			sub, err := c.SplitWith(colors, nil)
			if err != nil {
				return err
			}
			want := int64(3)
			sum, err := sub.AllreduceInts([]int64{1}, mpi.OpSum)
			if err != nil {
				return err
			}
			if sum[0] != want {
				return fmt.Errorf("round %d: sum %d, want %d", round, sum[0], want)
			}
		}
		return nil
	})
}

func TestTCPRandomTags(t *testing.T) {
	// Out-of-order tag matching across sockets: send tags 3,1,2 and
	// receive 1,2,3.
	runTCPWorld(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for _, tag := range []int{3, 1, 2} {
				if err := c.Send(1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			return nil
		}
		for _, tag := range []int{1, 2, 3} {
			data, _, err := c.Recv(0, tag)
			if err != nil {
				return err
			}
			if len(data) != 1 || data[0] != byte(tag) {
				return fmt.Errorf("tag %d delivered %v", tag, data)
			}
		}
		return nil
	})
}

// TestHandshakeDialBudget pins the transport cost of the MPH handshake over
// real sockets: its two collectives share one spanning tree, each of whose
// N-1 edges is dialled once per direction, and a hello no longer makes its
// receiver dial back.
func TestHandshakeDialBudget(t *testing.T) {
	const n = 16
	reg := "BEGIN\nMulti_Component_Begin\natmosphere 0 4\nland 5 7\nMulti_Component_End\n" +
		"Multi_Component_Begin\nocean 0 3\nice 4 5\nMulti_Component_End\ncoupler\nEND\n"
	var dials atomic.Uint64
	runTCPWorld(t, n, func(c *mpi.Comm) error {
		names := []string{"coupler"}
		switch {
		case c.Rank() < 8:
			names = []string{"atmosphere", "land"}
		case c.Rank() < 14:
			names = []string{"ocean", "ice"}
		}
		if _, err := core.ComponentsSetup(c, core.TextSource(reg), names); err != nil {
			return err
		}
		// A rank dials only from its own sends, all of which have returned.
		dials.Add(c.Perf().Net.Dials.Load())
		return nil
	})
	if got := dials.Load(); got > 2*(n-1) {
		t.Errorf("handshake dialled %d connections job-wide, budget 2(N-1) = %d", got, 2*(n-1))
	}
}

// TestTransferBothSidesRendezvous is the regression test for the head-to-head
// deadlock of the old send-all-then-receive-all transfer: three ranks that
// are each source and destination of a redistribution (every rank's slab
// goes to the next rank round the ring, a cycle only explicit SrcRanks and
// DstRanks can express within one plan) with every segment above the eager
// threshold. Each used to block in Send waiting for a CTS its neighbor, itself
// blocked in Send, would never issue. With every receive posted before any
// send the ring completes; a watchdog turns a relapse into a failure, not a
// stuck test run.
func TestTransferBothSidesRendezvous(t *testing.T) {
	const n = 3
	g, err := grid.New(48, 1024) // 16 bands x 1024 cells x 8 B = 128 KiB a segment
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDecomp(g, n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := xfer.NewRouter(d, d)
	if err != nil {
		t.Fatal(err)
	}
	runTCPWorld(t, n, func(c *mpi.Comm) error {
		me := c.Rank()
		f := grid.NewField(d, me)
		f.FillFunc(func(lat, lon int) float64 { return float64(1000*lat + lon) })
		spec := xfer.Spec{
			SrcRanks: []int{0, 1, 2}, SrcProc: me,
			DstRanks: []int{1, 2, 0}, DstProc: (me + n - 1) % n, // processor p's slab lands on rank p+1
		}
		p, err := xfer.NewPlan(c, r, spec)
		if err != nil {
			return err
		}
		out := grid.NewField(d, spec.DstProc)
		done := make(chan error, 1)
		go func() { done <- p.Run(4, f, out) }()
		select {
		case err := <-done:
			if err != nil {
				return err
			}
			lo, _ := d.Bands(spec.DstProc)
			for i, v := range out.Data {
				if want := float64(1000*(lo+i/g.NLon) + i%g.NLon); v != want {
					return fmt.Errorf("cell %d of the received slab is %v, want %v", i, v, want)
				}
			}
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("rank %d: transfer with rendezvous-sized segments in both directions deadlocked", me)
		}
	})
}
