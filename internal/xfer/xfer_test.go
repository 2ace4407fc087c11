package xfer_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
	"mph/internal/mpi/tcpnet"
	"mph/internal/xfer"
)

func mustGrid(t *testing.T, nlat, nlon int) grid.Grid {
	t.Helper()
	g, err := grid.New(nlat, nlon)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRouterPlansCoverEverything(t *testing.T) {
	g := mustGrid(t, 24, 4)
	for _, mn := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {4, 4}, {24, 2}, {2, 24}, {7, 30}} {
		src, _ := grid.NewDecomp(g, mn[0])
		dst, _ := grid.NewDecomp(g, mn[1])
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		cells, msgs := r.Volume()
		if cells != g.Cells() {
			t.Errorf("M=%d N=%d: plan moves %d cells, want %d", mn[0], mn[1], cells, g.Cells())
		}
		if msgs < maxInt(minNonEmpty(src), minNonEmpty(dst)) {
			t.Errorf("M=%d N=%d: suspicious message count %d", mn[0], mn[1], msgs)
		}
		// Send plans and recv plans must mirror each other.
		type pair struct{ s, d, lo, hi int }
		sends := map[pair]bool{}
		for p := 0; p < src.P; p++ {
			for _, seg := range r.SendPlan(p) {
				sends[pair{p, seg.Peer, seg.Lo, seg.Hi}] = true
			}
		}
		for q := 0; q < dst.P; q++ {
			for _, seg := range r.RecvPlan(q) {
				if !sends[pair{seg.Peer, q, seg.Lo, seg.Hi}] {
					t.Fatalf("recv segment %+v of dst %d has no matching send", seg, q)
				}
				delete(sends, pair{seg.Peer, q, seg.Lo, seg.Hi})
			}
		}
		if len(sends) != 0 {
			t.Fatalf("unmatched send segments: %v", sends)
		}
	}
}

func minNonEmpty(d *grid.Decomp) int {
	n := 0
	for p := 0; p < d.P; p++ {
		if d.OwnedCells(p) > 0 {
			n++
		}
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestNewRouterErrors(t *testing.T) {
	g1 := mustGrid(t, 8, 4)
	g2 := mustGrid(t, 8, 5)
	d1, _ := grid.NewDecomp(g1, 2)
	d2, _ := grid.NewDecomp(g2, 2)
	if _, err := xfer.NewRouter(d1, d2); err == nil {
		t.Error("grid mismatch accepted")
	}
	if _, err := xfer.NewRouter(nil, d1); err == nil {
		t.Error("nil decomp accepted")
	}
}

// runTransfer redistributes a deterministic field from M source ranks to N
// destination ranks on an (M+N)-rank world and verifies every cell.
func runTransfer(t *testing.T, nlat, nlon, m, n int) {
	t.Helper()
	g := mustGrid(t, nlat, nlon)
	src, _ := grid.NewDecomp(g, m)
	dst, _ := grid.NewDecomp(g, n)
	value := func(lat, lon int) float64 { return float64(100*lat + lon) }

	mpitest.Run(t, m+n, func(c *mpi.Comm) error {
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			return err
		}
		spec := xfer.Spec{SrcOffset: 0, DstOffset: m, SrcProc: -1, DstProc: -1}
		var f *grid.Field
		if c.Rank() < m {
			spec.SrcProc = c.Rank()
			f = grid.NewField(src, spec.SrcProc)
			f.FillFunc(value)
		} else {
			spec.DstProc = c.Rank() - m
		}
		p, err := xfer.NewPlan(c, r, spec)
		if err != nil {
			return err
		}
		var out *grid.Field
		if spec.DstProc >= 0 {
			out = grid.NewField(dst, spec.DstProc)
		}
		if err := p.Run(3, f, out); err != nil {
			return err
		}
		if spec.DstProc < 0 {
			return nil
		}
		lo, hi := dst.Bands(spec.DstProc)
		for lat := lo; lat < hi; lat++ {
			for lon := 0; lon < g.NLon; lon++ {
				v, err := out.At(lat, lon)
				if err != nil {
					return err
				}
				if v != value(lat, lon) {
					return fmt.Errorf("cell (%d,%d) = %g, want %g", lat, lon, v, value(lat, lon))
				}
			}
		}
		return nil
	})
}

func TestTransferMToN(t *testing.T) {
	cases := [][2]int{{1, 1}, {1, 4}, {4, 1}, {3, 5}, {5, 3}, {4, 4}, {2, 7}}
	for _, mn := range cases {
		mn := mn
		t.Run(fmt.Sprintf("%dto%d", mn[0], mn[1]), func(t *testing.T) {
			runTransfer(t, 16, 3, mn[0], mn[1])
		})
	}
}

func TestTransferTinyGrid(t *testing.T) {
	// More processors than latitude bands on both sides.
	runTransfer(t, 2, 2, 3, 4)
}

func TestTransferSameRankBothRoles(t *testing.T) {
	// A 2-rank world where every rank is both a source and a destination
	// (source decomp over 2, dest decomp over 2, shifted balance).
	g := mustGrid(t, 10, 2)
	src, _ := grid.NewDecomp(g, 2)
	dst, _ := grid.NewDecomp(g, 2)
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			return err
		}
		f := grid.NewField(src, c.Rank())
		f.FillFunc(func(lat, lon int) float64 { return float64(lat) })
		p, err := xfer.NewPlan(c, r, xfer.Spec{
			SrcOffset: 0, DstOffset: 0,
			SrcProc: c.Rank(), DstProc: c.Rank(),
		})
		if err != nil {
			return err
		}
		out := grid.NewField(dst, c.Rank())
		if err := p.Run(0, f, out); err != nil {
			return err
		}
		lo, hi := dst.Bands(c.Rank())
		for lat := lo; lat < hi; lat++ {
			v, err := out.At(lat, 0)
			if err != nil {
				return err
			}
			if v != float64(lat) {
				return fmt.Errorf("cell %d = %g", lat, v)
			}
		}
		return nil
	})
}

func TestTransferSpecErrors(t *testing.T) {
	g := mustGrid(t, 4, 2)
	src, _ := grid.NewDecomp(g, 1)
	dst, _ := grid.NewDecomp(g, 1)
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			return err
		}
		// Rank lists whose length disagrees with the decomposition.
		if _, err := xfer.NewPlan(c, r, xfer.Spec{SrcRanks: []int{0, 1}, SrcProc: 0, DstProc: -1}); err == nil {
			return fmt.Errorf("SrcRanks of the wrong length accepted")
		}
		if _, err := xfer.NewPlan(c, r, xfer.Spec{DstRanks: []int{}, SrcProc: 0, DstProc: -1}); err == nil {
			return fmt.Errorf("DstRanks of the wrong length accepted")
		}
		p, err := xfer.NewPlan(c, r, xfer.Spec{SrcProc: 0, DstProc: -1})
		if err != nil {
			return err
		}
		// Source without field.
		if err := p.Run(0, nil, nil); err == nil {
			return fmt.Errorf("missing field accepted")
		}
		// Field bound to the wrong processor.
		f := grid.NewField(src, 0)
		if err := p.Run(0, &grid.Field{Decomp: src, P: 99, Data: f.Data}, nil); err == nil {
			return fmt.Errorf("mismatched field accepted")
		}
		// Negative tag.
		if err := p.Run(-1, f, nil); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		// A destination without its slab or with another processor's, a
		// source folding with no field, and a fold or fill under a negative
		// tag.
		q, err := xfer.NewPlan(c, r, xfer.Spec{SrcProc: -1, DstProc: 0})
		if err != nil {
			return err
		}
		if err := q.Start(0, nil, nil); err == nil {
			return fmt.Errorf("missing destination field accepted")
		}
		if err := q.Start(0, nil, &grid.Field{Decomp: dst, P: 99, Data: f.Data}); err == nil {
			return fmt.Errorf("mismatched destination field accepted")
		}
		fold := func(int, []float64) {}
		if err := p.StartFold(0, nil, fold); err == nil {
			return fmt.Errorf("StartFold of a source without its field accepted")
		}
		if err := q.StartFold(-1, nil, fold); err == nil {
			return fmt.Errorf("StartFold under a negative tag accepted")
		}
		if err := p.SendFill(-1, fold); err == nil {
			return fmt.Errorf("SendFill under a negative tag accepted")
		}
		return nil
	})
}

func TestRouterVolumeProperty(t *testing.T) {
	// For any decomposition pair over the same grid, the plan moves the
	// whole grid exactly once, in one message for every pair of processors
	// that share a band range, however large the range.
	prop := func(nlatRaw, nlonRaw uint16, mRaw, nRaw uint8) bool {
		nlat := int(nlatRaw%200) + 1
		nlon := int(nlonRaw%12288) + 3
		m := int(mRaw%8) + 1
		n := int(nRaw%8) + 1
		g, err := grid.New(nlat, nlon)
		if err != nil {
			return false
		}
		src, _ := grid.NewDecomp(g, m)
		dst, _ := grid.NewDecomp(g, n)
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			return false
		}
		want := 0
		for p := 0; p < m; p++ {
			for q := 0; q < n; q++ {
				if shared(src, dst, p, q) > 0 {
					want++
				}
			}
		}
		cells, msgs := r.Volume()
		return cells == g.Cells() && msgs == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// shared returns the number of latitude bands source processor p and
// destination processor q both own.
func shared(src, dst *grid.Decomp, p, q int) int {
	plo, phi := src.Bands(p)
	qlo, qhi := dst.Bands(q)
	return max(0, min(phi, qhi)-max(plo, qlo))
}

// TestPlanSteadyState runs one plan many times, as a coupled run does, into
// one destination slab: each period's values replace the last, and a period
// allocates nothing slab-sized — over the in-process transport the sender's
// defensive copy of each segment, one payload per message, is all that is
// left (it was three to four: encode, copy, decode, and the fresh
// destination field).
func TestPlanSteadyState(t *testing.T) {
	const m, n, iters = 3, 2, 8
	g := mustGrid(t, 96, 64)
	src, _ := grid.NewDecomp(g, m)
	dst, _ := grid.NewDecomp(g, n)
	r, err := xfer.NewRouter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	mpitest.Run(t, m+n, func(c *mpi.Comm) error {
		spec := xfer.Spec{SrcOffset: 0, DstOffset: m, SrcProc: -1, DstProc: -1}
		var f *grid.Field
		if c.Rank() < m {
			spec.SrcProc = c.Rank()
			f = grid.NewField(src, spec.SrcProc)
		} else {
			spec.DstProc = c.Rank() - m
		}
		p, err := xfer.NewPlan(c, r, spec)
		if err != nil {
			return err
		}
		var out *grid.Field
		if spec.DstProc >= 0 {
			out = grid.NewField(dst, spec.DstProc)
		}
		period := func(k int) error {
			if f != nil {
				f.FillFunc(func(lat, lon int) float64 { return float64(k*1e6 + 100*lat + lon) })
			}
			if err := p.Start(5, f, out); err != nil {
				return err
			}
			if err := p.Wait(); err != nil || spec.DstProc < 0 {
				return err
			}
			lo, _ := dst.Bands(spec.DstProc)
			for i, v := range out.Data {
				if want := float64(k*1e6 + 100*(lo+i/g.NLon) + i%g.NLon); v != want {
					return fmt.Errorf("period %d, cell %d: got %v, want %v", k, i, v, want)
				}
			}
			return nil
		}
		if err := period(0); err != nil { // warm: first-use allocations
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for k := 1; k <= iters; k++ {
			if err := period(k); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	moved := float64(8 * g.Cells())
	per := float64(after.TotalAlloc-before.TotalAlloc) / iters / moved
	t.Logf("steady-state period allocates %.2f of the bytes it moves", per)
	if per > 1.1 {
		t.Errorf("a steady-state Start/Wait allocates %.2f payloads per message, want <= 1.1 (the in-process send's copy and nothing else)", per)
	}
}

// TestPlanWaitWithoutRun: Wait completes a run in flight and nothing else.
// With no run — never started, its Start or StartFold failed, or already
// waited for — it returns an error, not the last run's slab as if it had
// landed again; and no run or SendFill starts over one in flight.
func TestPlanWaitWithoutRun(t *testing.T) {
	g := mustGrid(t, 8, 2)
	src, _ := grid.NewDecomp(g, 1)
	dst, _ := grid.NewDecomp(g, 1)
	r, err := xfer.NewRouter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		p, err := xfer.NewPlan(c, r, xfer.Spec{SrcProc: 0, DstProc: 0})
		if err != nil {
			return err
		}
		f, out := grid.NewField(src, 0), grid.NewField(dst, 0)
		fold := func(lo int, seg []float64) { copy(out.Data[lo:], seg) }
		if err := p.Wait(); err == nil {
			return fmt.Errorf("Wait before any Start returned nil")
		}
		if err := p.Run(1, f, out); err != nil {
			return err
		}
		if err := p.Wait(); err == nil {
			return fmt.Errorf("a second Wait returned nil")
		}
		if err := p.Start(-1, f, out); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if err := p.Wait(); err == nil {
			return fmt.Errorf("Wait after a failed Start returned nil")
		}
		if err := p.StartFold(-1, f, fold); err == nil {
			return fmt.Errorf("negative tag accepted by StartFold")
		}
		if err := p.Wait(); err == nil {
			return fmt.Errorf("Wait after a failed StartFold returned nil")
		}
		if err := p.Start(2, f, out); err != nil {
			return err
		}
		if err := p.Start(3, f, out); err == nil {
			return fmt.Errorf("Start over a run in flight accepted")
		}
		if err := p.StartFold(3, f, fold); err == nil {
			return fmt.Errorf("StartFold over a run in flight accepted")
		}
		if err := p.SendFill(3, fold); err == nil {
			return fmt.Errorf("SendFill during a run in flight accepted")
		}
		if err := p.Wait(); err != nil {
			return err
		}
		if err := p.StartFold(4, f, fold); err != nil {
			return err
		}
		if err := p.Wait(); err != nil {
			return err
		}
		if err := p.Wait(); err == nil {
			return fmt.Errorf("a second Wait of a StartFold run returned nil")
		}
		return nil
	})
}

// TestTransferFold redistributes M to N with the folding receive: every
// destination rank's fold gets its segments in source processor order, each
// in pieces in ascending order, and together they cover the slab exactly
// once, with the values sent. A second run has the sources send with
// SendFill, each segment filled as it goes. On the wide grid a row is
// 32 KiB; over TCP the band ranges two processors share there are
// rendezvous-sized and are folded in pieces that split rows.
func TestTransferFold(t *testing.T) {
	for _, mn := range [][2]int{{1, 3}, {3, 1}, {3, 2}, {2, 5}} {
		m, n := mn[0], mn[1]
		t.Run(fmt.Sprintf("%dto%d", m, n), func(t *testing.T) {
			for _, nlon := range []int{3, 4096} {
				transferFold(t, mustGrid(t, 17, nlon), m, n, false, func(fn func(c *mpi.Comm) error) {
					mpitest.Run(t, m+n, fn)
				})
			}
		})
	}
	t.Run("tcp", func(t *testing.T) {
		transferFold(t, mustGrid(t, 17, 4096), 2, 3, true, func(fn func(c *mpi.Comm) error) {
			runTCP(t, 5, func(c *mpi.Comm, _ *mpi.Env) error { return fn(c) })
		})
	})
}

// transferFold runs TestTransferFold's two runs on an m-to-n transfer over
// g, on the world run starts; split asks for more pieces than segments.
func transferFold(t *testing.T, g grid.Grid, m, n int, split bool, run func(func(c *mpi.Comm) error)) {
	src, _ := grid.NewDecomp(g, m)
	dst, _ := grid.NewDecomp(g, n)
	r, err := xfer.NewRouter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	run(func(c *mpi.Comm) error {
		spec := xfer.Spec{DstOffset: m, SrcProc: -1, DstProc: -1}
		var f *grid.Field
		var segs []xfer.Segment
		if c.Rank() < m {
			spec.SrcProc = c.Rank()
			f = grid.NewField(src, spec.SrcProc)
		} else {
			spec.DstProc = c.Rank() - m
			segs = r.RecvPlan(spec.DstProc)
		}
		p, err := xfer.NewPlan(c, r, spec)
		if err != nil {
			return err
		}
		var got []float64
		var pieces [][2]int // [lo, hi) of each piece, in fold order
		fold := func(lo int, seg []float64) {
			pieces = append(pieces, [2]int{lo, lo + len(seg)})
			copy(got[lo:], seg)
		}
		for run := 0; run < 2; run++ {
			if f != nil {
				f.FillFunc(func(lat, lon int) float64 { return float64(run*1e6 + 100*lat + lon) })
				if run == 1 {
					if err := p.SendFill(7, func(lo int, seg []float64) { copy(seg, f.Data[lo:]) }); err != nil {
						return err
					}
					continue
				}
			}
			if spec.DstProc >= 0 {
				got, pieces = make([]float64, dst.OwnedCells(spec.DstProc)), nil
			}
			if err := p.StartFold(7, f, fold); err != nil {
				return err
			}
			if err := p.Wait(); err != nil {
				return err
			}
			if spec.DstProc < 0 {
				continue
			}
			// The pieces walk the segments in order, each from its start to
			// its end.
			myLo, _ := dst.Bands(spec.DstProc)
			k := 0
			for _, seg := range segs {
				for next := (seg.Lo - myLo) * g.NLon; next < (seg.Hi-myLo)*g.NLon; k++ {
					if k == len(pieces) || pieces[k][0] != next || pieces[k][1] <= next {
						return fmt.Errorf("%dx%d run %d: pieces %v do not walk segment %+v from cell %d", g.NLat, g.NLon, run, pieces, seg, next)
					}
					next = pieces[k][1]
				}
			}
			if k != len(pieces) {
				return fmt.Errorf("%dx%d run %d: %d pieces past the last segment", g.NLat, g.NLon, run, len(pieces)-k)
			}
			if split && len(pieces) <= len(segs) {
				return fmt.Errorf("%dx%d run %d: %d segments came in %d pieces, want them split", g.NLat, g.NLon, run, len(segs), len(pieces))
			}
			for i, v := range got {
				if want := float64(run*1e6 + 100*(myLo+i/g.NLon) + i%g.NLon); v != want {
					return fmt.Errorf("%dx%d run %d: cell %d = %v, want %v", g.NLat, g.NLon, run, i, v, want)
				}
			}
		}
		return nil
	})
}

// TestStartFailureLandsNothingLate: a Start whose send fails withdraws its
// posted receives and waits out one that already matched, so a rendezvous
// payload lands before Start returns the error, never after it. Rank 1 is
// the destination of rank 0's 64 KiB segment and sends its own to a rank
// that does not exist, which fails at once; rank 0's RTS is in before Start
// posts, so the receive matches it at the post and Cancel cannot withdraw it.
func TestStartFailureLandsNothingLate(t *testing.T) {
	g := mustGrid(t, 8, 1024) // 8 rows of 8 KiB: one 64 KiB segment
	d, _ := grid.NewDecomp(g, 1)
	r, err := xfer.NewRouter(d, d)
	if err != nil {
		t.Fatal(err)
	}
	runTCP(t, 2, func(c *mpi.Comm, env *mpi.Env) error {
		if c.Rank() == 0 {
			f := grid.NewField(d, 0)
			f.FillFunc(func(lat, lon int) float64 { return 1 })
			return c.SendFloats(1, 5, f.Data)
		}
		nc := &env.Perf().Net
		if err := poll("rank 0's RTS", func() bool { return nc.RTSIn.Load() > 0 }); err != nil {
			return err
		}
		p, err := xfer.NewPlan(c, r, xfer.Spec{SrcRanks: []int{0}, DstRanks: []int{2}, SrcProc: 0, DstProc: 0})
		if err != nil {
			return err
		}
		src, dst := grid.NewField(d, 0), grid.NewField(d, 0)
		if err := p.Start(5, src, dst); err == nil {
			return fmt.Errorf("a Start whose send goes to no rank succeeded")
		}
		before := append([]float64(nil), dst.Data...)
		if err := poll("the payload off the stream", func() bool { return nc.RDataIn.Load() > 0 }); err != nil {
			return err
		}
		for i, v := range dst.Data {
			if v != before[i] {
				return fmt.Errorf("cell %d of the slab changed from %v to %v after Start returned its error", i, before[i], v)
			}
		}
		return nil
	})
}

// poll waits up to 10 s for cond.
func poll(what string, cond func() bool) error {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never came", what)
		}
	}
	return nil
}

// runTCP runs fn on every rank of an n-rank world of TCP endpoints inside
// this process, each with its own wiring as an mphrun-launched process has.
func runTCP(t *testing.T, n int, fn func(c *mpi.Comm, env *mpi.Env) error) {
	t.Helper()
	rv, err := bootstrap.NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, err := tcpnet.Init(rank, n, rv.Advertised())
			if err != nil {
				errs[rank] = err
				return
			}
			defer env.Close()
			c := mpi.WorldComm(env)
			if errs[rank] = fn(c, env); errs[rank] == nil {
				errs[rank] = c.Barrier()
			}
		}()
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
			t.Errorf("rank %d: %v", r, err)
		}
	}
}
