package coupler_test

import (
	"fmt"
	"math"
	"testing"

	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// ccsmReg lays out the five components as an SCME job: atmosphere 3 ranks,
// ocean 2, land 2, ice 1, coupler 2 — world size 10.
const ccsmReg = `
BEGIN
atmosphere
ocean
land
ice
coupler
END
`

// layout is a job's atmosphere, ocean, land, ice and coupler rank counts,
// laid out on the world in that order under ccsmReg.
type layout [5]int

// ccsmLayout is the canonical 3/2/2/1/2 job.
var ccsmLayout = layout{3, 2, 2, 1, 2}

// size returns the layout's world size.
func (l layout) size() int { return l[0] + l[1] + l[2] + l[3] + l[4] }

// launch returns the component world rank rank runs.
func (l layout) launch(rank int) string {
	for i, name := range [5]string{"atmosphere", "ocean", "land", "ice", "coupler"} {
		if rank < l[i] {
			return name
		}
		rank -= l[i]
	}
	return ""
}

const ccsmWorldSize = 10

func setupCCSM(c *mpi.Comm) (*core.Setup, error) {
	return core.SingleComponentSetup(c, core.TextSource(ccsmReg), ccsmLayout.launch(c.Rank()))
}

func mustGrid(t *testing.T, nlat, nlon int) grid.Grid {
	t.Helper()
	g, err := grid.New(nlat, nlon)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLinkTransfersBothWays(t *testing.T) {
	g := mustGrid(t, 12, 4)
	mpitest.Run(t, ccsmWorldSize, func(c *mpi.Comm) error {
		s, err := setupCCSM(c)
		if err != nil {
			return err
		}
		name := s.CompName()
		if name != "ocean" && name != "coupler" {
			return nil
		}
		l, err := coupler.NewLink(s, "ocean", "coupler", g)
		if err != nil {
			return err
		}
		value := func(lat, lon int) float64 { return float64(10*lat + lon) }

		// ocean -> coupler
		var up *grid.Field
		// The ocean is the model side, its local processor id its index there.
		if name == "ocean" {
			f := grid.NewField(l.ModelDecomp(), s.LocalProcID())
			f.FillFunc(value)
			up, err = l.ToCoupler(f, 1)
		} else {
			up, err = l.ToCoupler(nil, 1)
		}
		if err != nil {
			return err
		}
		if proc, ok := l.OnCoupler(); ok {
			lo, hi := l.CouplerDecomp().Bands(proc)
			for lat := lo; lat < hi; lat++ {
				v, err := up.At(lat, 0)
				if err != nil {
					return err
				}
				if v != value(lat, 0) {
					return fmt.Errorf("up cell (%d,0) = %g", lat, v)
				}
			}
			// coupler -> ocean: echo the field back doubled.
			for i := range up.Data {
				up.Data[i] *= 2
			}
			if _, err := l.ToModel(up, 2); err != nil {
				return err
			}
		} else {
			down, err := l.ToModel(nil, 2)
			if err != nil {
				return err
			}
			lo, hi := l.ModelDecomp().Bands(s.LocalProcID())
			for lat := lo; lat < hi; lat++ {
				v, err := down.At(lat, 3)
				if err != nil {
					return err
				}
				if v != 2*value(lat, 3) {
					return fmt.Errorf("down cell (%d,3) = %g", lat, v)
				}
			}
		}
		return nil
	})
}

func TestLinkRejectsOverlapAndSelf(t *testing.T) {
	// atmosphere and land overlap in the MCME layout used by core's tests.
	reg := `
BEGIN
Multi_Component_Begin
atm 0 1
lnd 0 1
Multi_Component_End
hub
END
`
	g := mustGrid(t, 4, 2)
	mpitest.Run(t, 3, func(c *mpi.Comm) error {
		var s *core.Setup
		var err error
		if c.Rank() < 2 {
			s, err = core.ComponentsSetup(c, core.TextSource(reg), []string{"atm", "lnd"})
		} else {
			s, err = core.SingleComponentSetup(c, core.TextSource(reg), "hub")
		}
		if err != nil {
			return err
		}
		if _, err := coupler.NewLink(s, "atm", "atm", g); err == nil {
			return fmt.Errorf("self-link accepted")
		}
		if c.Rank() < 2 {
			if _, err := coupler.NewLink(s, "atm", "lnd", g); err == nil {
				return fmt.Errorf("overlapping link accepted")
			}
		}
		if _, err := coupler.NewLink(s, "ghost", "hub", g); err == nil {
			return fmt.Errorf("unknown component accepted")
		}
		return nil
	})
}

func TestRunCoupledDiagnostics(t *testing.T) {
	g := mustGrid(t, 16, 4)
	cfg := coupler.Config{Grid: g, Periods: 6, SubSteps: 4, Dt: 0.5}
	mpitest.RunTimeout(t, ccsmWorldSize, mpitest.Timeout, func(c *mpi.Comm) error {
		s, err := setupCCSM(c)
		if err != nil {
			return err
		}
		d, err := coupler.RunCoupled(s, cfg)
		if err != nil {
			return err
		}
		// Every rank gets the same full series.
		if len(d.AtmMean) != cfg.Periods || len(d.OcnMean) != cfg.Periods ||
			len(d.LandMean) != cfg.Periods || len(d.IceMean) != cfg.Periods ||
			len(d.Energy) != cfg.Periods || len(d.FluxImbalance) != cfg.Periods {
			return fmt.Errorf("series lengths %d %d %d %d %d %d",
				len(d.AtmMean), len(d.OcnMean), len(d.LandMean), len(d.IceMean),
				len(d.Energy), len(d.FluxImbalance))
		}
		for p := 0; p < cfg.Periods; p++ {
			if math.IsNaN(d.AtmMean[p]) || d.AtmMean[p] < 150 || d.AtmMean[p] > 400 {
				return fmt.Errorf("period %d: atm mean %g out of range", p, d.AtmMean[p])
			}
			if d.OcnMean[p] < 250 || d.OcnMean[p] > 320 {
				return fmt.Errorf("period %d: ocn mean %g out of range", p, d.OcnMean[p])
			}
			if d.IceMean[p] < 0 {
				return fmt.Errorf("period %d: negative ice %g", p, d.IceMean[p])
			}
			// The flux exchange conserves: imbalance numerically zero
			// relative to the field magnitudes (~300 * cells).
			if math.Abs(d.FluxImbalance[p]) > 1e-6 {
				return fmt.Errorf("period %d: flux imbalance %g", p, d.FluxImbalance[p])
			}
		}
		return nil
	})
}

func TestRunCoupledExchangePullsTemperaturesTogether(t *testing.T) {
	// The models' own relaxation forcing holds their temperatures apart;
	// the coupler's heat exchange pulls them together. Compare the final
	// |atm-ocn| gap under near-zero coupling against strong coupling.
	g := mustGrid(t, 16, 4)
	run := func(coeff float64) (gap float64, err error) {
		cfg := coupler.Config{Grid: g, Periods: 10, SubSteps: 2, Dt: 0.5, ExchangeCoeff: coeff}
		err = mpi.RunWorld(ccsmWorldSize, func(c *mpi.Comm) error {
			s, err := setupCCSM(c)
			if err != nil {
				return err
			}
			d, err := coupler.RunCoupled(s, cfg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				gap = math.Abs(d.AtmMean[cfg.Periods-1] - d.OcnMean[cfg.Periods-1])
			}
			return nil
		})
		return gap, err
	}
	weak, err := run(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := run(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if strong >= weak {
		t.Fatalf("strong coupling gap %g not smaller than weak coupling gap %g", strong, weak)
	}
}

func TestRunCoupledConfigValidation(t *testing.T) {
	g := mustGrid(t, 8, 4)
	mpitest.Run(t, ccsmWorldSize, func(c *mpi.Comm) error {
		s, err := setupCCSM(c)
		if err != nil {
			return err
		}
		if _, err := coupler.RunCoupled(s, coupler.Config{Grid: g, Periods: 0, SubSteps: 1, Dt: 1}); err == nil {
			return fmt.Errorf("zero periods accepted")
		}
		if _, err := coupler.RunCoupled(s, coupler.Config{Grid: g, Periods: 1, SubSteps: 1, Dt: -1}); err == nil {
			return fmt.Errorf("negative dt accepted")
		}
		return nil
	})
}

func TestRunCoupledCustomNames(t *testing.T) {
	// Arbitrary component names (paper §4.1) flow through the whole
	// coupled system.
	reg := "BEGIN\nNCAR_atm\nPOP_ocn\nCLM_lnd\nCSIM_ice\ncpl6\nEND\n"
	launch := func(rank int) string {
		switch {
		case rank < 2:
			return "NCAR_atm"
		case rank < 4:
			return "POP_ocn"
		case rank < 5:
			return "CLM_lnd"
		case rank < 6:
			return "CSIM_ice"
		default:
			return "cpl6"
		}
	}
	g := mustGrid(t, 8, 4)
	cfg := coupler.Config{
		Grid: g, Periods: 2, SubSteps: 2, Dt: 0.5,
		Names: coupler.Names{
			Atmosphere: "NCAR_atm", Ocean: "POP_ocn", Land: "CLM_lnd",
			Ice: "CSIM_ice", Coupler: "cpl6",
		},
	}
	mpitest.Run(t, 7, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), launch(c.Rank()))
		if err != nil {
			return err
		}
		d, err := coupler.RunCoupled(s, cfg)
		if err != nil {
			return err
		}
		if len(d.AtmMean) != 2 {
			return fmt.Errorf("series length %d", len(d.AtmMean))
		}
		return nil
	})
}

func TestRunCoupledInitHook(t *testing.T) {
	// The Init hook perturbs the ocean's initial state; the diagnostics
	// must reflect it from the first period.
	g := mustGrid(t, 12, 4)
	run := func(perturb float64) (first float64, err error) {
		cfg := coupler.Config{Grid: g, Periods: 2, SubSteps: 2, Dt: 0.5,
			Names: coupler.DefaultNames()}
		if perturb != 0 {
			cfg.Init = func(component string, m *model.SurfaceModel) error {
				if component != "ocean" {
					return nil
				}
				for i := range m.Field().Data {
					m.Field().Data[i] += perturb
				}
				return nil
			}
		}
		err = mpi.RunWorld(ccsmWorldSize, func(c *mpi.Comm) error {
			s, err := setupCCSM(c)
			if err != nil {
				return err
			}
			d, err := coupler.RunCoupled(s, cfg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				first = d.OcnMean[0]
			}
			return nil
		})
		return first, err
	}
	base, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := run(5)
	if err != nil {
		t.Fatal(err)
	}
	if warm <= base+3 {
		t.Fatalf("perturbation not visible: base %g, perturbed %g", base, warm)
	}
}

// BenchmarkCoupledClimate (EXPERIMENTS.md E8) runs the five-component
// coupled system of paper §7 on ten in-process ranks across grid sizes; an
// op is world creation + handshake + four coupling periods.
func BenchmarkCoupledClimate(b *testing.B) {
	for _, n := range [][2]int{{16, 8}, {32, 16}, {64, 32}, {128, 64}} {
		b.Run(fmt.Sprintf("%dx%d", n[0], n[1]), func(b *testing.B) {
			g, err := grid.New(n[0], n[1])
			if err != nil {
				b.Fatal(err)
			}
			cfg := coupler.Config{Grid: g, Periods: 4, SubSteps: 2, Dt: 0.5}
			for i := 0; i < b.N; i++ {
				err := mpi.RunWorld(ccsmWorldSize, func(c *mpi.Comm) error {
					s, err := setupCCSM(c)
					if err != nil {
						return err
					}
					_, err = coupler.RunCoupled(s, cfg)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
