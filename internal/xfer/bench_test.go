package xfer_test

import (
	"fmt"
	"testing"

	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/xfer"
)

// BenchmarkMToNTransfer (EXPERIMENTS.md E4) measures the M-to-N field
// redistribution a joined communicator exists for, in the steady state of a
// coupled run: one Plan per rank, one Start/Wait per period. It runs on the
// world communicator laid out as MPH_comm_join would (sources first): the
// join itself is a local derivation and sends nothing (A4). check.sh runs it
// with -benchmem as the steady-state allocation gate: B/op must stay near
// the bytes a period moves (the in-process send's copy), not a multiple.
func BenchmarkMToNTransfer(b *testing.B) {
	for _, mn := range [][2]int{{2, 2}, {4, 4}, {8, 2}} {
		b.Run(fmt.Sprintf("%dto%d", mn[0], mn[1]), func(b *testing.B) {
			g, err := grid.New(128, 64)
			if err != nil {
				b.Fatal(err)
			}
			src, _ := grid.NewDecomp(g, mn[0])
			dst, _ := grid.NewDecomp(g, mn[1])
			r, err := xfer.NewRouter(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(g.Cells() * 8))
			err = mpi.RunWorld(mn[0]+mn[1], func(c *mpi.Comm) error {
				spec := xfer.Spec{SrcOffset: 0, DstOffset: mn[0], SrcProc: -1, DstProc: -1}
				var f, out *grid.Field
				if c.Rank() < mn[0] {
					spec.SrcProc = c.Rank()
					f = grid.NewField(src, spec.SrcProc)
					f.FillFunc(func(lat, lon int) float64 { return float64(lat) })
				} else {
					spec.DstProc = c.Rank() - mn[0]
					out = grid.NewField(dst, spec.DstProc)
				}
				p, err := xfer.NewPlan(c, r, spec)
				if err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					if err := p.Start(i%1024, f, out); err != nil {
						return err
					}
					if err := p.Wait(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
