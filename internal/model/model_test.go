package model_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

func mustDecomp(t *testing.T, nlat, nlon, p int) *grid.Decomp {
	t.Helper()
	g, err := grid.New(nlat, nlon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := grid.NewDecomp(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	d := mustDecomp(t, 8, 4, 2)
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		if _, err := model.New("", c, d, model.Params{}); err == nil {
			return fmt.Errorf("empty name accepted")
		}
		if _, err := model.New("x", c, d, model.Params{Kappa: -1}); err == nil {
			return fmt.Errorf("negative kappa accepted")
		}
		if _, err := model.New("x", c, d, model.Params{Relax: 0.1}); err == nil {
			return fmt.Errorf("relaxation without forcing accepted")
		}
		return nil
	})
	// Wrong communicator size.
	mpitest.Run(t, 3, func(c *mpi.Comm) error {
		if _, err := model.New("x", c, d, model.Params{}); err == nil {
			return fmt.Errorf("comm/decomp mismatch accepted")
		}
		return nil
	})
	// A processor with no bands.
	dTiny := mustDecomp(t, 2, 4, 3)
	mpitest.Run(t, 3, func(c *mpi.Comm) error {
		if _, err := model.New("x", c, dTiny, model.Params{}); err == nil {
			return fmt.Errorf("empty processor accepted")
		}
		return nil
	})
}

func TestStepValidation(t *testing.T) {
	d := mustDecomp(t, 8, 4, 1)
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		m, err := model.New("x", c, d, model.Params{Kappa: 1})
		if err != nil {
			return err
		}
		if err := m.Step(0); err == nil {
			return fmt.Errorf("dt=0 accepted")
		}
		if err := m.Step(1); err == nil {
			return fmt.Errorf("unstable step accepted (kappa*dt = 1)")
		}
		return m.Step(0.1)
	})
}

func TestDiffusionConservesSum(t *testing.T) {
	// Pure diffusion (no relaxation) conserves the unweighted global sum.
	d := mustDecomp(t, 16, 8, 4)
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		m, err := model.New("cons", c, d, model.Params{
			Kappa:   0.2,
			Initial: func(lat, lon int) float64 { return float64(lat*lat) * math.Sin(float64(lon)) },
		})
		if err != nil {
			return err
		}
		before, err := m.GlobalSum()
		if err != nil {
			return err
		}
		if err := m.StepN(50, 1); err != nil {
			return err
		}
		after, err := m.GlobalSum()
		if err != nil {
			return err
		}
		if math.Abs(after-before) > 1e-8*math.Abs(before) {
			return fmt.Errorf("sum drifted: %g -> %g", before, after)
		}
		return nil
	})
}

func TestDiffusionSmooths(t *testing.T) {
	// A point spike decays; field variance decreases monotonically.
	d := mustDecomp(t, 12, 6, 3)
	mpitest.Run(t, 3, func(c *mpi.Comm) error {
		m, err := model.New("smooth", c, d, model.Params{
			Kappa: 0.2,
			Initial: func(lat, lon int) float64 {
				if lat == 5 && lon == 2 {
					return 100
				}
				return 0
			},
		})
		if err != nil {
			return err
		}
		prevVar, err := fieldVariance(m)
		if err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if err := m.Step(1); err != nil {
				return err
			}
			v, err := fieldVariance(m)
			if err != nil {
				return err
			}
			if v > prevVar+1e-12 {
				return fmt.Errorf("step %d: variance rose %g -> %g", i, prevVar, v)
			}
			prevVar = v
		}
		return nil
	})
}

func fieldVariance(m *model.SurfaceModel) (float64, error) {
	mean, err := m.GlobalMean()
	if err != nil {
		return 0, err
	}
	local := 0.0
	for _, v := range m.Field().Data {
		dv := v - mean
		local += dv * dv
	}
	return allreduceScalar(m, local)
}

// allreduceScalar sums a scalar over the model's communicator using the
// exported API (GlobalSum over a scratch copy of the field).
func allreduceScalar(m *model.SurfaceModel, v float64) (float64, error) {
	saved := append([]float64(nil), m.Field().Data...)
	for i := range m.Field().Data {
		m.Field().Data[i] = 0
	}
	m.Field().Data[0] = v
	out, err := m.GlobalSum()
	copy(m.Field().Data, saved)
	return out, err
}

func TestRelaxationReachesEquilibrium(t *testing.T) {
	d := mustDecomp(t, 8, 4, 2)
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		eq := func(lat, lon int, _ float64) float64 { return 42 }
		m, err := model.New("relax", c, d, model.Params{
			Kappa:   0.1,
			Relax:   0.2,
			Forcing: eq,
			Initial: func(lat, lon int) float64 { return 0 },
		})
		if err != nil {
			return err
		}
		if err := m.StepN(200, 1); err != nil {
			return err
		}
		mean, err := m.GlobalMean()
		if err != nil {
			return err
		}
		if math.Abs(mean-42) > 0.01 {
			return fmt.Errorf("mean %g, want ~42", mean)
		}
		return nil
	})
}

func TestDecompositionInvariance(t *testing.T) {
	// The parallel model must produce bit-identical fields regardless of
	// the processor count: run on 1 processor and on 2, 4, 5 and 12, compare.
	// Step rewrites its slab in place carrying two old rows; the counts cover
	// even and uneven splits, single-row slabs and both poles, where an
	// off-by-one in that carry would show.
	const nlat, nlon, steps = 12, 5, 25
	init := func(lat, lon int) float64 { return math.Sin(float64(3*lat)) + math.Cos(float64(2*lon)) }

	gather := func(p int) ([]float64, error) {
		d := mustDecomp(t, nlat, nlon, p)
		result := make([]float64, nlat*nlon)
		err := mpi.RunWorld(p, func(c *mpi.Comm) error {
			m, err := model.New("inv", c, d, model.Params{
				Kappa:   0.15,
				Relax:   0.02,
				Forcing: model.SolarEquilibrium(d.Grid, 1, 10),
				Initial: init,
			})
			if err != nil {
				return err
			}
			if err := m.StepN(steps, 1); err != nil {
				return err
			}
			// Rank 0 collects every slab, in rank order, for the serial
			// comparison.
			if c.Rank() != 0 {
				return c.SendFloats(0, 1, m.Field().Data)
			}
			idx := copy(result, m.Field().Data)
			for r := 1; r < p; r++ {
				slab := result[idx : idx+d.OwnedCells(r)]
				if _, err := c.RecvFloatsInto(r, 1, slab); err != nil {
					return err
				}
				idx += len(slab)
			}
			return nil
		})
		return result, err
	}

	serial, err := gather(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 5, 12} {
		parallel, err := gather(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
				t.Fatalf("p=%d: cell %d differs: serial %v, parallel %v", p, i, serial[i], parallel[i])
			}
		}
	}
}

func TestPresetComponentsStep(t *testing.T) {
	builders := map[string]func(*mpi.Comm, *grid.Decomp) (*model.SurfaceModel, error){
		"atmosphere": model.NewAtmosphere,
		"ocean":      model.NewOcean,
		"land":       model.NewLand,
		"ice":        model.NewSeaIce,
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			d := mustDecomp(t, 16, 8, 2)
			mpitest.Run(t, 2, func(c *mpi.Comm) error {
				m, err := build(c, d)
				if err != nil {
					return err
				}
				if err := m.StepN(20, 0.5); err != nil {
					return err
				}
				mean, err := m.GlobalMean()
				if err != nil {
					return err
				}
				if math.IsNaN(mean) || math.IsInf(mean, 0) {
					return fmt.Errorf("mean blew up: %g", mean)
				}
				return nil
			})
		})
	}
}

func TestAtmosphereWarmerAtEquator(t *testing.T) {
	d := mustDecomp(t, 16, 4, 1)
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		m, err := model.NewAtmosphere(c, d)
		if err != nil {
			return err
		}
		if err := m.StepN(50, 0.5); err != nil {
			return err
		}
		pole, err := m.Field().At(0, 0)
		if err != nil {
			return err
		}
		equator, err := m.Field().At(8, 0)
		if err != nil {
			return err
		}
		if equator <= pole {
			return fmt.Errorf("equator %g not warmer than pole %g", equator, pole)
		}
		return nil
	})
}

// TestStepAllocatesNoSlab: a step rewrites the model's one slab in place,
// carrying two old rows the model made with it, and receives its halo rows in
// place. A one-rank model then allocates nothing at all, its first step
// included; with neighbors the per-step allocations are the halo exchange's
// request records and the in-process send's copy of one row, a small
// fraction of a slab.
func TestStepAllocatesNoSlab(t *testing.T) {
	d := mustDecomp(t, 64, 64, 1)
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		m, err := model.NewAtmosphere(c, d)
		if err != nil {
			return err
		}
		state, data := m.Field(), &m.Field().Data[0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = m.Step(0.5)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		slab := 8 * d.OwnedCells(0)
		if first := after.TotalAlloc - before.TotalAlloc; first >= uint64(slab)/4 {
			return fmt.Errorf("the first step allocates %d bytes beside a %d-byte slab: a second slab is back", first, slab)
		}
		if n := testing.AllocsPerRun(10, func() { err = m.Step(0.5) }); n != 0 || err != nil {
			return fmt.Errorf("a one-rank step makes %v allocations (err %v), want none", n, err)
		}
		if m.Field() != state || &m.Field().Data[0] != data {
			return fmt.Errorf("Field() or its Data changed identity across steps")
		}
		return nil
	})

	const ranks, steps = 2, 16
	d2 := mustDecomp(t, 64, 64, ranks)
	var before, after runtime.MemStats
	mpitest.Run(t, ranks, func(c *mpi.Comm) error {
		m, err := model.NewOcean(c, d2)
		if err != nil {
			return err
		}
		if err := m.Step(0.5); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := m.StepN(steps, 0.5); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	slab := float64(8 * d2.OwnedCells(0))
	per := float64(after.TotalAlloc-before.TotalAlloc) / (ranks * steps)
	t.Logf("a step with one neighbor allocates %.0f bytes beside a %.0f-byte slab", per, slab)
	if per > slab/4 {
		t.Errorf("a step allocates %.0f bytes, a quarter of its %.0f-byte slab or more: a slab-sized buffer is back", per, slab)
	}
}
