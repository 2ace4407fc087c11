package xfer_test

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

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
		// A destination without its slab, with another processor's, or with
		// a segment buffer too small for its largest segment.
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
		if err := q.StartEach(0, nil, make([]float64, q.MaxSegment()-1)); err == nil {
			return fmt.Errorf("short segment buffer accepted")
		}
		fill := func(int, []float64) {}
		if err := p.SendEach(0, make([]float64, p.MaxSegment()-1), fill); err == nil {
			return fmt.Errorf("short SendEach buffer accepted")
		}
		if err := p.SendEach(-1, make([]float64, p.MaxSegment()), fill); err == nil {
			return fmt.Errorf("SendEach under a negative tag accepted")
		}
		return nil
	})
}

func TestRouterVolumeProperty(t *testing.T) {
	// For any decomposition pair over the same grid, the plan moves the
	// whole grid exactly once, and counts one message for every band range
	// a pair shares under xfer.ChunkBytes and ⌊rows / ⌈ChunkBytes/rowBytes⌉⌋
	// for every one at or above it. Rows run from 24 B to 96 KiB, so ranges
	// fall on both sides.
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
		chunkRows := (xfer.ChunkBytes + 8*nlon - 1) / (8 * nlon)
		for p := 0; p < m; p++ {
			for q := 0; q < n; q++ {
				if rows := shared(src, dst, p, q); rows > 0 {
					want += max(1, rows/chunkRows)
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

// TestChunkBytesIsEagerThreshold: band ranges split at the transport's eager
// threshold, so a chunk of a split range is never small enough to go eager,
// where it would sit buffered at the receiver.
func TestChunkBytesIsEagerThreshold(t *testing.T) {
	if xfer.ChunkBytes != tcpnet.DefaultEagerThreshold {
		t.Fatalf("xfer.ChunkBytes = %d, tcpnet.DefaultEagerThreshold = %d", xfer.ChunkBytes, tcpnet.DefaultEagerThreshold)
	}
}

// TestChunks: for any decomposition pair, the chunks a pair exchanges tile
// the band range the pair shares, in ascending order; the send plan and the
// receive plan list them alike, chunk for chunk; every chunk of a range of
// at least ChunkBytes is at least ChunkBytes itself, so it still takes the
// rendezvous path; every chunk is under 2·ChunkBytes plus one row; and a
// range under ChunkBytes is one chunk.
func TestChunks(t *testing.T) {
	prop := func(nlatRaw, nlonRaw uint16, mRaw, nRaw uint8) bool {
		nlat := int(nlatRaw%300) + 1
		nlon := int(nlonRaw%12288) + 1
		m, n := int(mRaw%8)+1, int(nRaw%8)+1
		g, _ := grid.New(nlat, nlon)
		src, _ := grid.NewDecomp(g, m)
		dst, _ := grid.NewDecomp(g, n)
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			t.Log(err)
			return false
		}
		rowBytes := 8 * nlon
		// byPeer groups a plan's chunks by peer, keeping their order; the
		// peer field is dropped, since it names the other side in each plan.
		byPeer := func(segs []xfer.Segment) map[int][]xfer.Segment {
			out := map[int][]xfer.Segment{}
			for _, s := range segs {
				out[s.Peer] = append(out[s.Peer], xfer.Segment{Lo: s.Lo, Hi: s.Hi})
			}
			return out
		}
		recvs := make([]map[int][]xfer.Segment, n)
		for q := range recvs {
			recvs[q] = byPeer(r.RecvPlan(q))
		}
		for p := 0; p < m; p++ {
			sends := byPeer(r.SendPlan(p))
			for q := 0; q < n; q++ {
				chunks, rows := sends[q], shared(src, dst, p, q)
				if rows == 0 {
					if len(chunks)+len(recvs[q][p]) != 0 {
						t.Logf("%dx%d, %d to %d: procs %d and %d share no band but exchange %v", nlat, nlon, m, n, p, q, chunks)
						return false
					}
					continue
				}
				if fmt.Sprint(chunks) != fmt.Sprint(recvs[q][p]) {
					t.Logf("%dx%d, %d to %d: proc %d sends %v to %d, which receives %v", nlat, nlon, m, n, p, chunks, q, recvs[q][p])
					return false
				}
				plo, _ := src.Bands(p)
				qlo, _ := dst.Bands(q)
				next := max(plo, qlo)
				for _, c := range chunks {
					bytes := c.Cells(g) * 8
					switch {
					case c.Lo != next || c.Hi <= c.Lo:
						t.Logf("%dx%d: chunks %v of procs %d and %d do not tile from band %d", nlat, nlon, chunks, p, q, next)
						return false
					case rows*rowBytes >= xfer.ChunkBytes && bytes < xfer.ChunkBytes:
						t.Logf("%dx%d: a %d-byte chunk of a %d-byte range", nlat, nlon, bytes, rows*rowBytes)
						return false
					case rows*rowBytes < xfer.ChunkBytes && len(chunks) != 1:
						t.Logf("%dx%d: a %d-byte range in %d chunks", nlat, nlon, rows*rowBytes, len(chunks))
						return false
					case bytes >= 2*xfer.ChunkBytes+rowBytes && len(chunks) > 1:
						t.Logf("%dx%d: a %d-byte chunk, %d-byte rows", nlat, nlon, bytes, rowBytes)
						return false
					}
					next = c.Hi
				}
				if next != max(plo, qlo)+rows {
					t.Logf("%dx%d: chunks %v of procs %d and %d end at band %d", nlat, nlon, chunks, p, q, next)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
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

// TestPlanWaitWithoutRun: Wait and Next complete a run in flight and nothing
// else. With no run — never started, its Start failed, or already waited
// for — they return an error, not the last run's slab as if it had landed
// again; and a run cannot be started over one in flight.
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
		if err := p.Wait(); err == nil {
			return fmt.Errorf("Wait before any Start returned nil")
		}
		if _, _, err := p.Next(); err == nil {
			return fmt.Errorf("Next before any StartEach returned nil")
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
		if err := p.Start(2, f, out); err != nil {
			return err
		}
		if err := p.Start(3, f, out); err == nil {
			return fmt.Errorf("Start over a run in flight accepted")
		}
		if _, _, err := p.Next(); err == nil {
			return fmt.Errorf("Next during a Start run returned nil")
		}
		return p.Wait()
	})
}

// TestTransferEach redistributes M to N with the segment-at-a-time receive:
// every destination rank gets its segments through one buffer of MaxSegment
// cells, in source processor order, each at its offset in the slab, and
// together they cover the slab exactly once. The run then ends, and a new
// one starts on the same buffer; in it the sources send with SendEach, each
// segment filled into a buffer of their own. On the wide grid every band
// range a pair shares is at least ChunkBytes and moves in chunks, so the
// buffers hold one chunk.
func TestTransferEach(t *testing.T) {
	for _, mn := range [][2]int{{1, 3}, {3, 1}, {3, 2}, {2, 5}} {
		m, n := mn[0], mn[1]
		t.Run(fmt.Sprintf("%dto%d", m, n), func(t *testing.T) {
			for _, nlon := range []int{3, 4096} {
				transferEach(t, mustGrid(t, 17, nlon), m, n)
			}
		})
	}
}

func transferEach(t *testing.T, g grid.Grid, m, n int) {
	src, _ := grid.NewDecomp(g, m)
	dst, _ := grid.NewDecomp(g, n)
	r, err := xfer.NewRouter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	mpitest.Run(t, m+n, func(c *mpi.Comm) error {
		spec := xfer.Spec{DstOffset: m, SrcProc: -1, DstProc: -1}
		var f *grid.Field
		var segs []xfer.Segment
		if c.Rank() < m {
			spec.SrcProc = c.Rank()
			f = grid.NewField(src, spec.SrcProc)
			segs = r.SendPlan(spec.SrcProc)
		} else {
			spec.DstProc = c.Rank() - m
			segs = r.RecvPlan(spec.DstProc)
		}
		p, err := xfer.NewPlan(c, r, spec)
		if err != nil {
			return err
		}
		largest := 0
		for _, seg := range segs {
			largest = max(largest, seg.Cells(g))
		}
		if p.MaxSegment() != largest {
			return fmt.Errorf("%dx%d: MaxSegment %d cells, the largest segment %d", g.NLat, g.NLon, p.MaxSegment(), largest)
		}
		buf := make([]float64, p.MaxSegment())
		for run := 0; run < 2; run++ {
			if f != nil {
				f.FillFunc(func(lat, lon int) float64 { return float64(run*1e6 + 100*lat + lon) })
			}
			if f != nil && run == 1 {
				if err := p.SendEach(7, buf, func(lo int, seg []float64) { copy(seg, f.Data[lo:]) }); err != nil {
					return err
				}
				continue
			}
			if err := p.StartEach(7, f, buf); err != nil {
				return err
			}
			var got []float64
			if spec.DstProc >= 0 {
				got = make([]float64, dst.OwnedCells(spec.DstProc))
			}
			for k := 0; ; k++ {
				lo, seg, err := p.Next()
				if err != nil {
					return err
				}
				if seg == nil {
					if spec.DstProc >= 0 && k != len(segs) {
						return fmt.Errorf("run %d: %d segments, want %d", run, k, len(segs))
					}
					break
				}
				if &seg[0] != &buf[0] {
					return fmt.Errorf("run %d: segment %d is not in the buffer", run, k)
				}
				myLo, _ := dst.Bands(spec.DstProc)
				if want := (segs[k].Lo - myLo) * g.NLon; lo != want || len(seg) != segs[k].Cells(g) {
					return fmt.Errorf("run %d: segment %d at %d+%d, want %d+%d", run, k, lo, len(seg), want, segs[k].Cells(g))
				}
				copy(got[lo:], seg)
			}
			if _, _, err := p.Next(); err == nil {
				return fmt.Errorf("run %d: Next after the last segment returned nil", run)
			}
			if spec.DstProc < 0 {
				continue
			}
			lo, _ := dst.Bands(spec.DstProc)
			for i, v := range got {
				if want := float64(run*1e6 + 100*(lo+i/g.NLon) + i%g.NLon); v != want {
					return fmt.Errorf("%dx%d run %d: cell %d = %v, want %v", g.NLat, g.NLon, run, i, v, want)
				}
			}
		}
		return nil
	})
}
