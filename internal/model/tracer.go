package model

import (
	"fmt"
	"math"

	"mph/internal/grid"
	"mph/internal/mpi"
)

// TracerModel advects a passive tracer (chemistry, CO2 — the paper's
// example of an extra component inside an atmosphere executable, §2) with a
// prescribed wind field, using a flux-form first-order upwind scheme:
// exactly mass-conserving, stable under the CFL condition, and parallel
// over latitude bands with the same halo pattern as SurfaceModel.
//
// Winds are given at cell faces in units of cells per unit time:
// U(lat, lonFace) is the eastward velocity through the face between
// longitude lonFace-1 and lonFace (periodic), V(latFace, lon) the
// southward velocity through the face between latitude latFace-1 and
// latFace. V across the outer (polar) faces is treated as zero.
type TracerModel struct {
	name   string
	comm   *mpi.Comm
	decomp *grid.Decomp
	conc   *grid.Field
	u      func(lat, lonFace int) float64
	v      func(latFace, lon int) float64

	time float64
	step int

	halo [2]mpi.Request // the halo receives, posted again every step
}

// tracerHaloTag keeps tracer halo traffic distinct from SurfaceModel's.
const tracerHaloTag = 9100

// NewTracer creates a tracer model. comm must have decomp.P ranks and every
// processor at least one latitude band. u and v may be nil (no wind in that
// direction).
func NewTracer(name string, comm *mpi.Comm, decomp *grid.Decomp,
	u func(lat, lonFace int) float64, v func(latFace, lon int) float64,
	initial func(lat, lon int) float64) (*TracerModel, error) {

	if name == "" {
		return nil, fmt.Errorf("model: empty tracer name")
	}
	if comm.Size() != decomp.P {
		return nil, fmt.Errorf("tracer %s: communicator has %d ranks, decomposition wants %d", name, comm.Size(), decomp.P)
	}
	for proc := 0; proc < decomp.P; proc++ {
		if lo, hi := decomp.Bands(proc); hi-lo < 1 {
			return nil, fmt.Errorf("tracer %s: processor %d owns no latitude bands", name, proc)
		}
	}
	if u == nil {
		u = func(int, int) float64 { return 0 }
	}
	if v == nil {
		v = func(int, int) float64 { return 0 }
	}
	m := &TracerModel{
		name:   name,
		comm:   comm,
		decomp: decomp,
		conc:   grid.NewField(decomp, comm.Rank()),
		u:      u,
		v:      v,
	}
	if initial != nil {
		m.conc.FillFunc(initial)
	}
	return m, nil
}

// Name returns the tracer's component name.
func (m *TracerModel) Name() string { return m.name }

// Field returns the local concentration slab.
func (m *TracerModel) Field() *grid.Field { return m.conc }

// Time returns the model time.
func (m *TracerModel) Time() float64 { return m.time }

// StepCount returns the number of completed steps.
func (m *TracerModel) StepCount() int { return m.step }

// TotalMass returns the global unweighted tracer sum; collective. The
// flux-form scheme conserves it exactly up to floating-point associativity.
func (m *TracerModel) TotalMass() (float64, error) {
	out, err := m.comm.AllreduceFloats([]float64{m.conc.LocalSum()}, mpi.OpSum)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Step advances the tracer by dt. It enforces the CFL condition over the
// local faces (|u|dt ≤ 1 and |v|dt ≤ 1). Collective over the component
// communicator.
func (m *TracerModel) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("tracer %s: non-positive dt %g", m.name, dt)
	}
	nlon := m.decomp.Grid.NLon
	nlat := m.decomp.Grid.NLat
	lo, hi := m.decomp.Bands(m.comm.Rank())
	rows := hi - lo
	old := m.conc.Data

	// Halo exchange: each side needs the neighbor's edge row to compute
	// the shared-face upwind flux identically.
	north := make([]float64, nlon) // neighbor row lo-1
	south := make([]float64, nlon) // neighbor row hi
	if err := m.exchange(north, south, nlon); err != nil {
		return err
	}

	cellAt := func(lat, lon int) float64 {
		switch {
		case lat < lo:
			return north[lon]
		case lat >= hi:
			return south[lon]
		default:
			return old[(lat-lo)*nlon+lon]
		}
	}

	next := make([]float64, len(old))
	for row := 0; row < rows; row++ {
		lat := lo + row
		for lon := 0; lon < nlon; lon++ {
			// East-west faces (periodic).
			uw := m.u(lat, lon) // face between lon-1 and lon
			ue := m.u(lat, (lon+1)%nlon)
			if math.Abs(uw)*dt > 1 || math.Abs(ue)*dt > 1 {
				return fmt.Errorf("tracer %s: CFL violated in lon at (%d,%d)", m.name, lat, lon)
			}
			fw := upwindFlux(uw, cellAt(lat, (lon-1+nlon)%nlon), cellAt(lat, lon))
			fe := upwindFlux(ue, cellAt(lat, lon), cellAt(lat, (lon+1)%nlon))

			// North-south faces; polar outer faces are closed.
			var fn, fs float64
			if lat > 0 {
				vn := m.v(lat, lon) // face between lat-1 and lat
				if math.Abs(vn)*dt > 1 {
					return fmt.Errorf("tracer %s: CFL violated in lat at (%d,%d)", m.name, lat, lon)
				}
				fn = upwindFlux(vn, cellAt(lat-1, lon), cellAt(lat, lon))
			}
			if lat < nlat-1 {
				vs := m.v(lat+1, lon)
				if math.Abs(vs)*dt > 1 {
					return fmt.Errorf("tracer %s: CFL violated in lat at (%d,%d)", m.name, lat, lon)
				}
				fs = upwindFlux(vs, cellAt(lat, lon), cellAt(lat+1, lon))
			}

			next[row*nlon+lon] = old[row*nlon+lon] + dt*(fw-fe+fn-fs)
		}
	}
	m.conc.Data = next
	m.time += dt
	m.step++
	return nil
}

// upwindFlux returns the flux through a face with velocity vel (positive
// toward the "high" cell), taking the upwind concentration.
func upwindFlux(vel, low, high float64) float64 {
	if vel >= 0 {
		return vel * low
	}
	return vel * high
}

// StepN advances n steps of dt.
func (m *TracerModel) StepN(n int, dt float64) error {
	for i := 0; i < n; i++ {
		if err := m.Step(dt); err != nil {
			return err
		}
	}
	return nil
}

// exchange swaps edge rows with latitude neighbors.
func (m *TracerModel) exchange(north, south []float64, nlon int) error {
	return exchangeEdgeRows(m.comm, m.name, m.conc.Data, nlon, tracerHaloTag, north, south, &m.halo)
}
