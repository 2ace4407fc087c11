// Package model provides deterministic toy geophysical components —
// atmosphere, ocean, land, sea-ice — standing in for the CCSM component
// models the paper integrates with MPH (§1, §7). Each component evolves a
// scalar surface field on a latitude-band-decomposed lat-lon grid with an
// explicit diffusion stencil, halo exchange between neighboring processors,
// and relaxation toward a component-specific equilibrium profile.
//
// The models are not meant to be physically quantitative; they are meant to
// exercise MPH's call sequence (handshake → per-component communicator →
// coupled exchange) with realistic data volumes and stencil communication,
// and to be bit-reproducible across processor counts so tests can verify
// that the parallel decomposition does not change the answer.
package model

import (
	"fmt"
	"math"

	"mph/internal/grid"
	"mph/internal/mpi"
)

// ForcingFunc gives the equilibrium value a cell relaxes toward at time t.
type ForcingFunc func(lat, lon int, t float64) float64

// Params configures a SurfaceModel.
type Params struct {
	// Kappa is the diffusion coefficient per unit time; explicit stability
	// requires Kappa*dt <= 0.25.
	Kappa float64
	// Relax is the relaxation rate toward the forcing equilibrium per unit
	// time (0 disables forcing).
	Relax float64
	// Forcing is the equilibrium profile; required when Relax > 0.
	Forcing ForcingFunc
	// Initial fills the state at construction; nil means zero.
	Initial func(lat, lon int) float64
}

// SurfaceModel is one component's distributed prognostic field plus its
// stepping scheme.
type SurfaceModel struct {
	name   string
	comm   *mpi.Comm
	decomp *grid.Decomp
	state  *grid.Field
	params Params

	time float64

	// halo rows and the requests that receive them, and the two old rows an
	// in-place Step carries, all reused across steps
	north, south []float64
	halo         [2]mpi.Request
	prev, cur    []float64

	sum  [1]float64 // GlobalSum's operand
	mean [2]float64 // GlobalMean's operand
}

// haloTag carries halo-exchange traffic; the component communicator is
// private to the component, so a fixed tag cannot collide with coupling
// traffic (which travels on joined or global communicators).
const haloTag = 9000

// New creates a component model on comm, which must have exactly decomp.P
// ranks; the calling rank owns decomp block comm.Rank(). Every processor
// must own at least one latitude band.
func New(name string, comm *mpi.Comm, decomp *grid.Decomp, p Params) (*SurfaceModel, error) {
	if name == "" {
		return nil, fmt.Errorf("model: empty name")
	}
	if comm.Size() != decomp.P {
		return nil, fmt.Errorf("model %s: communicator has %d ranks, decomposition wants %d", name, comm.Size(), decomp.P)
	}
	for proc := 0; proc < decomp.P; proc++ {
		if lo, hi := decomp.Bands(proc); hi-lo < 1 {
			return nil, fmt.Errorf("model %s: processor %d owns no latitude bands (grid %d bands over %d procs)",
				name, proc, decomp.Grid.NLat, decomp.P)
		}
	}
	if p.Kappa < 0 || p.Relax < 0 {
		return nil, fmt.Errorf("model %s: negative coefficients", name)
	}
	if p.Relax > 0 && p.Forcing == nil {
		return nil, fmt.Errorf("model %s: relaxation without forcing", name)
	}
	m := &SurfaceModel{
		name:   name,
		comm:   comm,
		decomp: decomp,
		state:  grid.NewField(decomp, comm.Rank()),
		params: p,
		north:  make([]float64, decomp.Grid.NLon),
		south:  make([]float64, decomp.Grid.NLon),
		prev:   make([]float64, decomp.Grid.NLon),
		cur:    make([]float64, decomp.Grid.NLon),
	}
	if p.Initial != nil {
		m.state.FillFunc(p.Initial)
	}
	return m, nil
}

// Field returns the local slab of the prognostic field. Callers may read
// it; writing between steps changes the model state (used by coupling). Step
// rewrites the slab in place, so Data stays the same slice across steps.
func (m *SurfaceModel) Field() *grid.Field { return m.state }

// Step advances the model by dt: halo exchange, explicit 5-point diffusion
// (periodic east-west, insulated at the poles), then relaxation toward the
// forcing profile. Collective over the component communicator.
func (m *SurfaceModel) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("model %s: non-positive dt %g", m.name, dt)
	}
	if m.params.Kappa*dt > 0.25 {
		return fmt.Errorf("model %s: unstable step: kappa*dt = %g > 0.25", m.name, m.params.Kappa*dt)
	}
	if err := m.exchangeHalos(); err != nil {
		return err
	}

	nlon := m.decomp.Grid.NLon
	lo, hi := m.decomp.Bands(m.comm.Rank())
	rows := hi - lo
	data := m.state.Data
	kdt := m.params.Kappa * dt

	// The slab is rewritten row by row, top down: the row below is still old
	// when a row is computed, and prev and cur keep the old copies of the row
	// above and of the row being overwritten.
	prev, cur := m.prev, m.cur
	for row := 0; row < rows; row++ {
		prev, cur = cur, prev
		out := data[row*nlon : (row+1)*nlon]
		copy(cur, out)
		// Beyond a pole the boundary is insulated: the edge row mirrors
		// itself. Between processors the halos stand in.
		var north, south []float64
		switch {
		case row > 0:
			north = prev
		case lo == 0:
			north = cur
		default:
			north = m.north
		}
		switch {
		case row < rows-1:
			south = data[(row+1)*nlon : (row+2)*nlon]
		case hi == m.decomp.Grid.NLat:
			south = cur
		default:
			south = m.south
		}
		for lon := 0; lon < nlon; lon++ {
			c := cur[lon]
			east := cur[(lon+1)%nlon]
			west := cur[(lon-1+nlon)%nlon]
			lap := east + west + north[lon] + south[lon] - 4*c
			v := c + kdt*lap
			if m.params.Relax > 0 {
				eq := m.params.Forcing(lo+row, lon, m.time)
				v += m.params.Relax * dt * (eq - v)
			}
			out[lon] = v
		}
	}
	m.time += dt
	return nil
}

// StepN advances the model n steps of dt.
func (m *SurfaceModel) StepN(n int, dt float64) error {
	for i := 0; i < n; i++ {
		if err := m.Step(dt); err != nil {
			return err
		}
	}
	return nil
}

// exchangeHalos swaps the slab's first and last rows with the latitude
// neighbors: processor p-1 holds the bands to the north (lower latitude
// index), p+1 to the south. The rows land straight in m.north and m.south on
// the model's own two requests, posted again every step; both receives are
// posted before either row is sent.
func (m *SurfaceModel) exchangeHalos() error {
	nlon := m.decomp.Grid.NLon
	data := m.state.Data
	rows := len(data) / nlon
	sides := [2]struct {
		peer       int
		halo, edge []float64
		dir        string
	}{
		{m.comm.Rank() - 1, m.north, data[:nlon], "north"},
		{m.comm.Rank() + 1, m.south, data[(rows-1)*nlon:], "south"},
	}
	var posted [2]bool
	for i, s := range sides {
		if posted[i] = s.peer >= 0 && s.peer < m.comm.Size(); posted[i] {
			m.comm.StartRecvFloatsInto(&m.halo[i], s.peer, haloTag, s.halo)
		}
	}
	var err error
	for i, s := range sides {
		if !posted[i] || err != nil {
			continue
		}
		if e := m.comm.SendFloats(s.peer, haloTag, s.edge); e != nil {
			err = fmt.Errorf("model %s: halo send %s: %w", m.name, s.dir, e)
		}
	}
	for i := range m.halo {
		if !posted[i] {
			continue
		}
		if err != nil {
			m.halo[i].Cancel() // the halo rows are the model's again on return
		}
		if _, _, e := m.halo[i].Wait(); e != nil && err == nil {
			err = fmt.Errorf("model %s: halo recv %s: %w", m.name, sides[i].dir, e)
		}
	}
	return err
}

// GlobalMean returns the area-weighted global mean of the field;
// collective over the component communicator.
func (m *SurfaceModel) GlobalMean() (float64, error) {
	m.mean[0], m.mean[1] = m.state.LocalWeightedMean()
	out, err := m.comm.AllreduceFloats(m.mean[:], mpi.OpSum)
	if err != nil {
		return 0, err
	}
	return out[0] / out[1], nil
}

// GlobalSum returns the unweighted global sum of the field; collective over
// the component communicator. Diffusion with Relax = 0 conserves it.
func (m *SurfaceModel) GlobalSum() (float64, error) {
	m.sum[0] = m.state.LocalSum()
	out, err := m.comm.AllreduceFloats(m.sum[:], mpi.OpSum)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// equilibrium profiles for the preset components.

// SolarEquilibrium is the classic cos²(latitude) radiative profile between
// a polar and an equatorial temperature.
func SolarEquilibrium(g grid.Grid, polar, equator float64) ForcingFunc {
	return byLatitude(g, func(phi float64) float64 {
		c := math.Cos(phi)
		return polar + (equator-polar)*c*c
	})
}

// byLatitude is the forcing f(φ) of each cell's row latitude φ, worked out
// once a row into a table: Step asks for it every cell of every step. The
// returned func only reads the table, so ranks may share it.
func byLatitude(g grid.Grid, f func(phi float64) float64) ForcingFunc {
	tab := make([]float64, g.NLat)
	for lat := range tab {
		tab[lat] = f(-math.Pi/2 + (float64(lat)+0.5)*math.Pi/float64(g.NLat))
	}
	return func(lat, _ int, _ float64) float64 { return tab[lat] }
}

// NewAtmosphere builds the fast, strongly mixed component: high
// diffusivity, quick relaxation to the solar profile.
func NewAtmosphere(comm *mpi.Comm, decomp *grid.Decomp) (*SurfaceModel, error) {
	eq := SolarEquilibrium(decomp.Grid, 235, 300)
	return New("atmosphere", comm, decomp, Params{
		Kappa:   0.20,
		Relax:   0.10,
		Forcing: eq,
		Initial: func(lat, lon int) float64 { return eq(lat, lon, 0) },
	})
}

// NewOcean builds the slow component: low diffusivity, weak relaxation,
// warm initial state.
func NewOcean(comm *mpi.Comm, decomp *grid.Decomp) (*SurfaceModel, error) {
	eq := SolarEquilibrium(decomp.Grid, 271, 302)
	return New("ocean", comm, decomp, Params{
		Kappa:   0.05,
		Relax:   0.01,
		Forcing: eq,
		Initial: func(lat, lon int) float64 { return 285 },
	})
}

// NewLand builds a soil-moisture bucket: diffusion stands in for runoff
// spreading, relaxation toward a wet-tropics profile for precipitation
// minus evaporation.
func NewLand(comm *mpi.Comm, decomp *grid.Decomp) (*SurfaceModel, error) {
	eq := byLatitude(decomp.Grid, func(phi float64) float64 {
		return 0.2 + 0.6*math.Cos(phi) // saturation fraction
	})
	return New("land", comm, decomp, Params{
		Kappa:   0.02,
		Relax:   0.05,
		Forcing: eq,
		Initial: func(lat, lon int) float64 { return 0.3 },
	})
}

// NewSeaIce builds an ice-thickness model: thick near the poles, zero in
// the tropics.
func NewSeaIce(comm *mpi.Comm, decomp *grid.Decomp) (*SurfaceModel, error) {
	eq := byLatitude(decomp.Grid, func(phi float64) float64 {
		s := math.Sin(phi)
		thick := 3 * (s*s - 0.7) / 0.3
		if thick < 0 {
			return 0
		}
		return thick
	})
	return New("ice", comm, decomp, Params{
		Kappa:   0.01,
		Relax:   0.08,
		Forcing: eq,
		Initial: func(lat, lon int) float64 { return eq(lat, lon, 0) },
	})
}
