package coupler

import (
	"fmt"
	"time"

	"mph/internal/core"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
	"mph/internal/timemgr"
)

// Names binds the coupled system's roles to registration-file component
// names (which are arbitrary, per paper §4.1).
type Names struct {
	Atmosphere, Ocean, Land, Ice, Coupler string
}

// DefaultNames matches the paper's running CCSM example.
func DefaultNames() Names {
	return Names{
		Atmosphere: "atmosphere",
		Ocean:      "ocean",
		Land:       "land",
		Ice:        "ice",
		Coupler:    "coupler",
	}
}

// Config drives RunCoupled.
type Config struct {
	// Grid is the shared coupling grid.
	Grid grid.Grid
	// Periods is the number of coupling exchanges.
	Periods int
	// SubSteps is the number of internal model steps per period.
	SubSteps int
	// Dt is the model time step; coupling interval is SubSteps*Dt.
	Dt float64
	// ExchangeCoeff scales the atmosphere-ocean heat flux.
	ExchangeCoeff float64
	// Pace, when positive, makes each model rank sleep this long after
	// every coupling exchange. The grid is small enough that a whole run
	// completes in milliseconds; pacing stretches it to wall-clock time so
	// demos and smoke tests can watch the live telemetry while the job is
	// still running. The coupler needs no sleep of its own: it blocks on
	// the paced models.
	Pace time.Duration
	// Names maps roles to component names; zero value means DefaultNames.
	Names Names
	// Init, when non-nil, runs on each model component's ranks right
	// after model construction — the hook for loading a restart state or
	// applying per-member perturbations. It must succeed on every rank or
	// the whole job is expected to abort; a partial failure leaves peers
	// blocked in the first exchange, exactly as in an MPI job.
	Init func(component string, m *model.SurfaceModel) error
}

func (c *Config) fill() error {
	if c.Names == (Names{}) {
		c.Names = DefaultNames()
	}
	if c.Periods <= 0 || c.SubSteps <= 0 {
		return fmt.Errorf("coupler: periods and substeps must be positive")
	}
	if c.Dt <= 0 {
		return fmt.Errorf("coupler: dt must be positive")
	}
	if c.ExchangeCoeff <= 0 {
		c.ExchangeCoeff = 0.02
	}
	return nil
}

// Diagnostics holds the per-period global diagnostics, broadcast to every
// rank when RunCoupled returns: area-weighted means of each surface field
// and the conservation check (unweighted atmosphere+ocean sum, which the
// flux exchange must keep constant). The six series are consecutive views
// of one buffer, in field order, which is what the broadcast moves.
type Diagnostics struct {
	AtmMean, OcnMean, LandMean, IceMean []float64
	Energy                              []float64
	// FluxImbalance is the global sum of the atmosphere and ocean
	// increments each period; the exchange is conservative, so it must be
	// numerically zero.
	FluxImbalance []float64

	all []float64 // the 6×periods buffer the series view
}

// newDiagnostics returns zeroed diagnostics of the given number of periods,
// the six series views of one buffer.
func newDiagnostics(periods int) *Diagnostics {
	all := make([]float64, 6*periods)
	series := func(k int) []float64 { return all[k*periods : (k+1)*periods] }
	return &Diagnostics{
		AtmMean: series(0), OcnMean: series(1), LandMean: series(2), IceMean: series(3),
		Energy: series(4), FluxImbalance: series(5),
		all: all,
	}
}

// coupling tags, one per direction and component.
const (
	tagAtmUp = 2000 + iota
	tagOcnUp
	tagLndUp
	tagIceUp
	tagAtmDown
	tagOcnDown
	tagLndDown
	tagIceDown
	tagSums
	tagDiag
)

// RunCoupled executes the CCSM-style coupled loop of paper §7 over an MPH
// setup: every rank of the five components calls it collectively after the
// handshake. It returns the same Diagnostics on every rank.
func RunCoupled(s *core.Setup, cfg Config) (*Diagnostics, error) {
	return runCoupled(s, cfg, runCouplerSide)
}

// couplerSide is the coupler component's half of the loop; the seam lets a
// test run the model side against a reference coupler.
type couplerSide func(*core.Setup, Config, [4]*Link) (*Diagnostics, error)

func runCoupled(s *core.Setup, cfg Config, couplerLoop couplerSide) (*Diagnostics, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := cfg.Names

	// Links, constructed in a fixed order (CommJoin is collective over
	// each pair). Model ranks build only their own link.
	var links [4]*Link
	modelNames := [4]string{n.Atmosphere, n.Ocean, n.Land, n.Ice}
	_, onCoupler := s.ProcInComponent(n.Coupler)
	myModel := -1
	for i, name := range modelNames {
		_, member := s.ProcInComponent(name)
		if member {
			if myModel >= 0 {
				return nil, fmt.Errorf("coupler: rank belongs to both %q and %q; coupled components must not overlap",
					modelNames[myModel], name)
			}
			myModel = i
		}
		if member || onCoupler {
			l, err := NewLink(s, name, n.Coupler, cfg.Grid)
			if err != nil {
				return nil, fmt.Errorf("coupler: link %q: %w", name, err)
			}
			links[i] = l
		}
	}
	if myModel < 0 && !onCoupler {
		return nil, fmt.Errorf("coupler: rank %d belongs to no coupled component", s.GlobalProcID())
	}

	if onCoupler {
		return couplerLoop(s, cfg, links)
	}
	return runModelSide(s, cfg, links[myModel], myModel)
}

// upTags and downTags index coupling tags by model slot.
var (
	upTags   = [4]int{tagAtmUp, tagOcnUp, tagLndUp, tagIceUp}
	downTags = [4]int{tagAtmDown, tagOcnDown, tagLndDown, tagIceDown}
)

// couplingSchedule builds the shared clock + coupling alarm; every
// component constructs the identical schedule, so the integer-step alarms
// agree exactly (package timemgr's design point).
func couplingSchedule(cfg Config) (*timemgr.Schedule, error) {
	sched := timemgr.NewSchedule(timemgr.NewClock(int64(cfg.Periods * cfg.SubSteps)))
	if err := sched.AddAlarm("couple", int64(cfg.SubSteps), 0); err != nil {
		return nil, err
	}
	return sched, nil
}

// runModelSide is the time loop of one model component: advance the shared
// clock, step the model, exchange with the coupler when the coupling alarm
// rings.
func runModelSide(s *core.Setup, cfg Config, link *Link, slot int) (*Diagnostics, error) {
	name := [4]string{cfg.Names.Atmosphere, cfg.Names.Ocean, cfg.Names.Land, cfg.Names.Ice}[slot]
	comm, _ := s.ProcInComponent(name)
	build := [4]func(*mpi.Comm, *grid.Decomp) (*model.SurfaceModel, error){
		model.NewAtmosphere, model.NewOcean, model.NewLand, model.NewSeaIce,
	}[slot]
	m, err := build(comm, link.ModelDecomp())
	if err != nil {
		return nil, err
	}
	if cfg.Init != nil {
		if err := cfg.Init(name, m); err != nil {
			return nil, fmt.Errorf("coupler: init %q: %w", name, err)
		}
	}
	sched, err := couplingSchedule(cfg)
	if err != nil {
		return nil, err
	}
	var report [1]float64 // the sum sent to the coupler root each period
	// The increment arrives one segment (a chunk, from 64 KiB up) at a time,
	// each added into its range of the state: one buffer the size of the
	// largest.
	seg := make([]float64, link.down.MaxSegment())
	clamp := slot == 3 // ice thickness cannot go negative

	for !sched.Clock.Done() {
		ringing, err := sched.Advance()
		if err != nil {
			return nil, err
		}
		if err := m.Step(cfg.Dt); err != nil {
			return nil, err
		}
		if len(ringing) == 0 {
			continue
		}
		// The receive of the increment's first segment is posted before the
		// field goes up, so the coupler rank that sends it never waits for
		// this rank to come back round; each later one is posted once the
		// segment before it is in (DESIGN.md §12).
		if err := link.down.StartEach(downTags[slot], nil, seg); err != nil {
			return nil, err
		}
		if _, err := link.ToCoupler(m.Field(), upTags[slot]); err != nil {
			return nil, err
		}
		for {
			lo, delta, err := link.down.Next()
			if err != nil {
				return nil, err
			}
			if delta == nil {
				break
			}
			applyDelta(m.Field().Data[lo:lo+len(delta)], delta, clamp)
		}
		if cfg.Pace > 0 {
			time.Sleep(cfg.Pace)
		}

		// Conservation bookkeeping: atmosphere and ocean report their
		// unweighted sums to the coupler root after the exchange.
		if slot == 0 || slot == 1 {
			if report[0], err = m.GlobalSum(); err != nil {
				return nil, err
			}
			if comm.Rank() == 0 {
				if err := s.SendFloatsTo(cfg.Names.Coupler, 0, tagSums, report[:]); err != nil {
					return nil, err
				}
			}
		}
	}
	return recvDiagnostics(s, cfg, newDiagnostics(cfg.Periods))
}

// applyDelta adds one segment of the coupler's increment into its range of
// the model state.
func applyDelta(data, delta []float64, clampNonNegative bool) {
	for i, d := range delta {
		data[i] += d
		if clampNonNegative && data[i] < 0 {
			data[i] = 0
		}
	}
}

// runCouplerSide receives every model's field, merges fluxes, returns the
// increments, and accumulates diagnostics. It holds two slabs, atmosphere
// and ice, and one chunk buffer: land's and ocean's fields stream through
// the buffer, each increment is written over a slab it is computed from or
// filled into the buffer as it goes (DESIGN.md §12).
func runCouplerSide(s *core.Setup, cfg Config, links [4]*Link) (*Diagnostics, error) {
	comm, _ := s.ProcInComponent(cfg.Names.Coupler)
	dtc := float64(cfg.SubSteps) * cfg.Dt
	d := newDiagnostics(cfg.Periods)
	// Operands of the period's allreduces and the models' reports.
	var imbalance, report [1]float64
	var mean [4][2]float64
	sched, err := couplingSchedule(cfg)
	if err != nil {
		return nil, err
	}
	proc, _ := links[0].OnCoupler()
	decomp := links[0].CouplerDecomp()
	atmF, iceF := grid.NewField(decomp, proc), grid.NewField(decomp, proc)
	slab := [4]*grid.Field{0: atmF, 3: iceF}
	atm, ice := atmF.Data, iceF.Data
	// One buffer for land's and ocean's chunks, both ways.
	size := 0
	for _, i := range [2]int{1, 2} {
		size = max(size, links[i].up.MaxSegment(), links[i].down.MaxSegment())
	}
	buf := make([]float64, size)
	// stream receives link i's field one chunk at a time, continuing its
	// local mean pair over each in ascending cell order, and hands each to
	// merge, if any.
	stream := func(i int, merge func(lo int, seg []float64)) error {
		up := links[i].up
		if err := up.StartEach(upTags[i], nil, buf); err != nil {
			return err
		}
		mean[i] = [2]float64{}
		for {
			lo, seg, err := up.Next()
			if err != nil || seg == nil {
				return err
			}
			mean[i][0], mean[i][1] = decomp.WeightedSum(proc, lo, seg, mean[i][0], mean[i][1])
			if merge != nil {
				merge(lo, seg)
			}
		}
	}

	for p := 0; !sched.Clock.Done(); {
		ringing, err := sched.Advance()
		if err != nil {
			return nil, err
		}
		if len(ringing) == 0 {
			continue // the models are mid-period; the coupler idles
		}
		// Atmosphere and ice land in their slabs, both receives posted before
		// anything waits, while land streams through: only its mean is
		// needed, since its increment depends on a alone.
		for _, i := range [2]int{0, 3} {
			if err := links[i].up.Start(upTags[i], nil, slab[i]); err != nil {
				return nil, err
			}
		}
		if err := stream(2, nil); err != nil {
			return nil, err
		}
		for _, i := range [2]int{0, 3} {
			if err := links[i].up.Wait(); err != nil {
				return nil, err
			}
			// The local mean pair is taken first: the merge writes over it.
			mean[i][0], mean[i][1] = slab[i].LocalWeightedMean()
		}

		// Land's increment, a chunk at a time, from a.
		if err := links[2].down.SendEach(downTags[2], buf, func(lo int, seg []float64) {
			for i, a := range atm[lo : lo+len(seg)] {
				// Land dries under a warm atmosphere.
				seg[i] = -1e-4 * (a - 288) * dtc
			}
		}); err != nil {
			return nil, err
		}

		// Ocean streams through the flux merge: each cell's inputs are read,
		// then its ice increment is written over c and its atmosphere
		// increment, dA = −dO bit for bit, over a.
		if err := stream(1, func(lo int, ocn []float64) {
			a, c := atm[lo:lo+len(ocn)], ice[lo:lo+len(ocn)]
			for i, o := range ocn {
				iceFrac := c[i] / 2
				if iceFrac > 1 {
					iceFrac = 1
				}
				if iceFrac < 0 {
					iceFrac = 0
				}
				// Atmosphere-ocean heat exchange, shut off under ice.
				flux := cfg.ExchangeCoeff * (a[i] - o) * (1 - iceFrac)
				// Ice grows below freezing, melts above.
				c[i] = 5e-3 * (271.35 - a[i]) * dtc
				a[i] = -(flux * dtc)
			}
		}); err != nil {
			return nil, err
		}
		if _, err := links[3].ToModel(iceF, downTags[3]); err != nil {
			return nil, err
		}
		if _, err := links[0].ToModel(atmF, downTags[0]); err != nil {
			return nil, err
		}
		// The ocean's increment is the atmosphere's negated: IEEE negation is
		// exact.
		if err := links[1].down.SendEach(downTags[1], buf, func(lo int, seg []float64) {
			for i, a := range atm[lo : lo+len(seg)] {
				seg[i] = -a
			}
		}); err != nil {
			return nil, err
		}

		// Conservation of the exchange itself: the atmosphere and ocean
		// increments must cancel globally. The sum runs over dA, then over
		// dO = −dA, in the order they went out.
		localImbalance := 0.0
		for _, v := range atm {
			localImbalance += v
		}
		for _, v := range atm {
			localImbalance += -v
		}
		imbalance[0] = localImbalance
		if _, err := comm.AllreduceFloats(imbalance[:], mpi.OpSum); err != nil {
			return nil, err
		}
		d.FluxImbalance[p] = imbalance[0]

		// Diagnostics: area-weighted means over the coupler communicator.
		means := [4][]float64{d.AtmMean, d.OcnMean, d.LandMean, d.IceMean}
		for i := range mean {
			if _, err := comm.AllreduceFloats(mean[i][:], mpi.OpSum); err != nil {
				return nil, err
			}
			means[i][p] = mean[i][0] / mean[i][1]
		}

		// Conservation: the models report their post-exchange sums.
		if comm.Rank() == 0 {
			total := 0.0
			for k := 0; k < 2; k++ {
				if _, err := s.GlobalWorld().RecvFloatsInto(mpi.AnySource, tagSums, report[:]); err != nil {
					return nil, err
				}
				total += report[0]
			}
			d.Energy[p] = total
		}
		p++
	}
	return bcastDiagnostics(s, cfg, d)
}

// bcastDiagnostics ships the coupler root's diagnostics to every rank so
// RunCoupled has a uniform return value: the root sends its buffer as it
// lies, and the other coupler ranks receive over the one they recorded in.
func bcastDiagnostics(s *core.Setup, cfg Config, d *Diagnostics) (*Diagnostics, error) {
	comm, _ := s.ProcInComponent(cfg.Names.Coupler)
	if comm.Rank() != 0 {
		return recvDiagnostics(s, cfg, d)
	}
	// Send to every non-coupler-root rank over the global world.
	for r := 0; r < s.World().Size(); r++ {
		if r == s.GlobalProcID() {
			continue
		}
		if err := s.GlobalWorld().SendFloats(r, tagDiag, d.all); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// recvDiagnostics blocks for the coupler root's diagnostics broadcast and
// receives it into d's buffer.
func recvDiagnostics(s *core.Setup, cfg Config, d *Diagnostics) (*Diagnostics, error) {
	rootWorld, err := s.WorldRankOf(cfg.Names.Coupler, 0)
	if err != nil {
		return nil, err
	}
	if _, err := s.GlobalWorld().RecvFloatsInto(rootWorld, tagDiag, d.all); err != nil {
		return nil, err
	}
	return d, nil
}
