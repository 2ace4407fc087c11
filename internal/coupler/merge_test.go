package coupler

import (
	"math"
	"strings"
	"testing"

	"mph/internal/core"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
)

// referenceCouplerSide is the coupler loop with an out-of-place merge: four
// increment fields of its own beside the four received ones, eight slabs a
// rank, and all four up-receives posted at once. runCouplerSide must
// reproduce it bit for bit.
func referenceCouplerSide(s *core.Setup, cfg Config, links [4]*Link) (*Diagnostics, error) {
	comm, _ := s.ProcInComponent(cfg.Names.Coupler)
	dtc := float64(cfg.SubSteps) * cfg.Dt
	d := newDiagnostics(cfg.Periods)
	var fields, deltas [4]*grid.Field
	for i, l := range links {
		proc, _ := l.OnCoupler()
		fields[i] = grid.NewField(l.CouplerDecomp(), proc)
		deltas[i] = grid.NewField(l.CouplerDecomp(), proc)
	}
	for p := 0; p < cfg.Periods; p++ {
		for i, l := range links {
			if err := l.up.Start(upTags[i], nil, fields[i]); err != nil {
				return nil, err
			}
		}
		for _, l := range links {
			if err := l.up.Wait(); err != nil {
				return nil, err
			}
		}
		atm, ocn, ice := fields[0], fields[1], fields[3]
		for i := range atm.Data {
			iceFrac := ice.Data[i] / 2
			if iceFrac > 1 {
				iceFrac = 1
			}
			if iceFrac < 0 {
				iceFrac = 0
			}
			flux := cfg.ExchangeCoeff * (atm.Data[i] - ocn.Data[i]) * (1 - iceFrac)
			deltas[0].Data[i] = -flux * dtc
			deltas[1].Data[i] = +flux * dtc
			deltas[2].Data[i] = -1e-4 * (atm.Data[i] - 288) * dtc
			deltas[3].Data[i] = 5e-3 * (271.35 - atm.Data[i]) * dtc
		}
		for i, l := range links {
			if _, err := l.ToModel(deltas[i], downTags[i]); err != nil {
				return nil, err
			}
		}

		imbalance := 0.0
		for _, v := range deltas[0].Data {
			imbalance += v
		}
		for _, v := range deltas[1].Data {
			imbalance += v
		}
		imb, err := comm.AllreduceFloats([]float64{imbalance}, mpi.OpSum)
		if err != nil {
			return nil, err
		}
		d.FluxImbalance[p] = imb[0]
		var means [4]float64
		for i, f := range fields {
			ws, w := f.LocalWeightedMean()
			out, err := comm.AllreduceFloats([]float64{ws, w}, mpi.OpSum)
			if err != nil {
				return nil, err
			}
			means[i] = out[0] / out[1]
		}
		d.AtmMean[p], d.OcnMean[p], d.LandMean[p], d.IceMean[p] = means[0], means[1], means[2], means[3]

		if comm.Rank() == 0 {
			total := 0.0
			for k := 0; k < 2; k++ {
				var report [1]float64
				if _, err := s.GlobalWorld().RecvFloatsInto(mpi.AnySource, tagSums, report[:]); err != nil {
					return nil, err
				}
				total += report[0]
			}
			d.Energy[p] = total
		}
	}
	return bcastDiagnostics(s, cfg, d)
}

// runLayout runs the coupled job on an in-process world of the given
// atmosphere/ocean/land/ice/coupler rank counts with coupler as the coupler
// component's loop. It returns the coupler root's diagnostics and every
// model rank's final slab, indexed by world rank (nil on coupler ranks).
func runLayout(t *testing.T, sizes [5]int, g grid.Grid, coupler couplerSide) (*Diagnostics, [][]float64) {
	t.Helper()
	n := DefaultNames()
	order := [5]string{n.Atmosphere, n.Ocean, n.Land, n.Ice, n.Coupler}
	reg := "BEGIN\n" + strings.Join(order[:], "\n") + "\nEND\n"
	world := 0
	for _, k := range sizes {
		world += k
	}
	launch := func(rank int) string {
		i := 0
		for rank >= sizes[i] {
			rank -= sizes[i]
			i++
		}
		return order[i]
	}
	couplerRoot := world - sizes[4]

	var diag *Diagnostics
	slabs := make([][]float64, world)
	err := mpi.RunWorld(world, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), launch(c.Rank()))
		if err != nil {
			return err
		}
		var m *model.SurfaceModel
		cfg := Config{Grid: g, Periods: 5, SubSteps: 2, Dt: 0.5,
			Init: func(_ string, built *model.SurfaceModel) error { m = built; return nil }}
		d, err := runCoupled(s, cfg, coupler)
		if err != nil {
			return err
		}
		if m != nil {
			slabs[c.Rank()] = m.Field().Data
		}
		if c.Rank() == couplerRoot {
			diag = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return diag, slabs
}

// TestInPlaceMergeMatchesReference: the coupler holds two slabs, folds
// land's and ocean's fields as they arrive, writes the ice and atmosphere
// increments over their fields and fills land's and ocean's as they go, and
// every model folds its increment into its state one segment at a time; the
// job must still be the out-of-place merge's bit for bit — every diagnostic
// of every period and every model rank's final state. One layout is the
// canonical 3/2/2/1/2; the others have a 3-rank coupler, so the coupler's 16
// bands split 6/5/5 and the single ice rank takes its increment in three
// segments. On the 4096-wide grid a row is 32 KiB, so a band range of two
// rows or more is rendezvous-sized, and the streamed means are summed over
// several segments.
func TestInPlaceMergeMatchesReference(t *testing.T) {
	for _, nlon := range []int{6, 4096} {
		g, err := grid.New(16, nlon)
		if err != nil {
			t.Fatal(err)
		}
		inPlaceMatchesReference(t, g)
	}
}

func inPlaceMatchesReference(t *testing.T, g grid.Grid) {
	for _, sizes := range [][5]int{{3, 2, 2, 1, 2}, {2, 2, 1, 1, 3}, {3, 2, 2, 1, 3}} {
		wantDiag, wantSlabs := runLayout(t, sizes, g, referenceCouplerSide)
		gotDiag, gotSlabs := runLayout(t, sizes, g, runCouplerSide)

		series := func(d *Diagnostics) [6][]float64 {
			return [6][]float64{d.AtmMean, d.OcnMean, d.LandMean, d.IceMean, d.Energy, d.FluxImbalance}
		}
		want, got := series(wantDiag), series(gotDiag)
		for k := range want {
			if len(got[k]) != len(want[k]) {
				t.Fatalf("%v, layout %v: series %d has %d periods, reference %d", g, sizes, k, len(got[k]), len(want[k]))
			}
			for p := range want[k] {
				if math.Float64bits(got[k][p]) != math.Float64bits(want[k][p]) {
					t.Errorf("%v, layout %v: series %d period %d: %v, reference %v", g, sizes, k, p, got[k][p], want[k][p])
				}
			}
		}
		for r := range wantSlabs {
			if len(gotSlabs[r]) != len(wantSlabs[r]) {
				t.Fatalf("%v, layout %v: world rank %d holds %d cells, reference %d", g, sizes, r, len(gotSlabs[r]), len(wantSlabs[r]))
			}
			for i := range wantSlabs[r] {
				if math.Float64bits(gotSlabs[r][i]) != math.Float64bits(wantSlabs[r][i]) {
					t.Fatalf("%v, layout %v: world rank %d cell %d: %v, reference %v", g, sizes, r, i, gotSlabs[r][i], wantSlabs[r][i])
				}
			}
		}
	}
}
