package model

import (
	"fmt"
	"math"
	"testing"

	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// TestForcingTablesBitIdentical steps each preset on a 384x192 slab twice:
// with its latitude-table forcing, and with the per-cell closure the table
// replaced, which works out the latitude's cosine or sine at every call.
// The states must agree bit for bit.
func TestForcingTablesBitIdentical(t *testing.T) {
	g, err := grid.New(384, 192)
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDecomp(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	phi := func(lat int) float64 { return -math.Pi/2 + (float64(lat)+0.5)*math.Pi/float64(g.NLat) }
	solar := func(polar, equator float64) ForcingFunc {
		return func(lat, _ int, _ float64) float64 {
			c := math.Cos(phi(lat))
			return polar + (equator-polar)*c*c
		}
	}
	ice := func(lat, _ int, _ float64) float64 {
		s := math.Sin(phi(lat))
		thick := 3 * (s*s - 0.7) / 0.3
		if thick < 0 {
			return 0
		}
		return thick
	}
	cases := []struct {
		build      func(*mpi.Comm, *grid.Decomp) (*SurfaceModel, error)
		perCell    ForcingFunc
		initFromEq bool
	}{
		{NewAtmosphere, solar(235, 300), true},
		{NewOcean, solar(271, 302), false},
		{NewLand, func(lat, _ int, _ float64) float64 { return 0.2 + 0.6*math.Cos(phi(lat)) }, false},
		{NewSeaIce, ice, true},
	}
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		for _, tc := range cases {
			m, err := tc.build(c, d)
			if err != nil {
				return err
			}
			p := m.params
			p.Forcing = tc.perCell
			if tc.initFromEq {
				p.Initial = func(lat, lon int) float64 { return tc.perCell(lat, lon, 0) }
			}
			ref, err := New(m.name, c, d, p)
			if err != nil {
				return err
			}
			for _, x := range []*SurfaceModel{m, ref} {
				if err := x.StepN(8, 1); err != nil {
					return err
				}
			}
			for i, v := range m.Field().Data {
				if w := ref.Field().Data[i]; math.Float64bits(v) != math.Float64bits(w) {
					return fmt.Errorf("%s: cell %d is %v with the table, %v per cell", m.name, i, v, w)
				}
			}
		}
		return nil
	})
}
