package job

import (
	"fmt"
	"syscall"
	"time"

	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
)

// Span names, one per layer call the traced mirror wraps. The driver sums
// them by name; the prefix is the module that owns the time.
const (
	SpanWire      = "mpirun.wire"     // main entered → tcpnet.InitFromEnv returned
	SpanHandshake = "core.handshake"  // core.ComponentsSetup
	SpanJoin      = "core.join"       // coupler.NewLink → CommJoin
	SpanPeriod    = "coupler.period"  // one coupling period; parent of the rest
	SpanStep      = "model.step"      // SurfaceModel.Step, halo exchange included
	SpanToCoupler = "xfer.to_coupler" // Link.ToCoupler
	SpanToModel   = "xfer.to_model"   // Link.ToModel
	SpanAllreduce = "mpi.allreduce"   // AllreduceFloats / GlobalSum
	SpanP2P       = "mpi.p2p"         // SendFloatsTo / RecvAny / diagnostics Send, Recv
)

// Span is one timed call into a layer: name, start and end (Unix ns), the
// index of the span that was open when it began (-1 for none) and the
// coupling period it belongs to (-1 outside the loop). CPU is the process CPU
// time (user+sys ns) the call consumed; only model.step spans measure it.
type Span struct {
	Name       string
	Start, End int64
	Parent     int
	Period     int
	CPU        int64 `json:",omitempty"`
}

// Recorder keeps one rank's spans in memory; the rank dumps them at exit.
// A rank's coupled loop runs on one goroutine, so a plain stack of open spans
// gives each span its parent.
type Recorder struct {
	spans []Span
	open  []int
}

// Begin opens a span under the innermost open one.
func (r *Recorder) Begin(name string, period int) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, Span{Name: name, Start: time.Now().UnixNano(), Parent: parent, Period: period})
}

// End closes the innermost open span.
func (r *Recorder) End() {
	n := len(r.open) - 1
	r.spans[r.open[n]].End = time.Now().UnixNano()
	r.open = r.open[:n]
}

// EndCPU closes the innermost open span and records the CPU time it used.
func (r *Recorder) EndCPU(cpu int64) {
	r.spans[r.open[len(r.open)-1]].CPU = cpu
	r.End()
}

// Add records an already-finished top-level span.
func (r *Recorder) Add(name string, start, end time.Time) {
	r.spans = append(r.spans, Span{Name: name, Start: start.UnixNano(), End: end.UnixNano(), Parent: -1, Period: -1})
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span { return r.spans }

// cpuNow returns the process's user+sys CPU time in ns.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// The coupler's message tags (internal/coupler/system.go); the mirror sends
// on the same ones.
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

var (
	upTags   = [4]int{tagAtmUp, tagOcnUp, tagLndUp, tagIceUp}
	downTags = [4]int{tagAtmDown, tagOcnDown, tagLndDown, tagIceDown}
)

// RunTraced is coupler.RunCoupled's call sequence, driven step by step
// through the layers' public functions with a span around each call. It must
// stay a faithful copy: the driver's mirror guard compares its Diagnostics
// and message counts with an untraced job's on every run and discards the
// per-layer times when they differ.
func RunTraced(s *core.Setup, cfg coupler.Config, rec *Recorder) (*coupler.Diagnostics, error) {
	n := cfg.Names
	var links [4]*coupler.Link
	modelNames := [4]string{n.Atmosphere, n.Ocean, n.Land, n.Ice}
	_, onCoupler := s.ProcInComponent(n.Coupler)
	myModel := -1
	for i, name := range modelNames {
		_, member := s.ProcInComponent(name)
		if member {
			myModel = i
		}
		if member || onCoupler {
			rec.Begin(SpanJoin, -1)
			l, err := coupler.NewLink(s, name, n.Coupler, cfg.Grid)
			rec.End()
			if err != nil {
				return nil, fmt.Errorf("traced: link %q: %w", name, err)
			}
			links[i] = l
		}
	}
	if onCoupler {
		return tracedCouplerSide(s, cfg, links, rec)
	}
	if myModel < 0 {
		return nil, fmt.Errorf("traced: rank %d belongs to no coupled component", s.GlobalProcID())
	}
	return tracedModelSide(s, cfg, links[myModel], myModel, modelNames[myModel], rec)
}

func tracedModelSide(s *core.Setup, cfg coupler.Config, link *coupler.Link, slot int, name string, rec *Recorder) (*coupler.Diagnostics, error) {
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
			return nil, fmt.Errorf("traced: init %q: %w", name, err)
		}
	}

	for p := 0; p < cfg.Periods; p++ {
		rec.Begin(SpanPeriod, p)
		for step := 0; step < cfg.SubSteps; step++ {
			rec.Begin(SpanStep, p)
			cpu := cpuNow()
			err := m.Step(cfg.Dt)
			rec.EndCPU(cpuNow() - cpu)
			if err != nil {
				return nil, err
			}
		}
		rec.Begin(SpanToCoupler, p)
		_, err := link.ToCoupler(m.Field(), upTags[slot])
		rec.End()
		if err != nil {
			return nil, err
		}
		rec.Begin(SpanToModel, p)
		delta, err := link.ToModel(nil, downTags[slot])
		rec.End()
		if err != nil {
			return nil, err
		}
		data := m.Field().Data
		for i, d := range delta.Data {
			data[i] += d
			if slot == 3 && data[i] < 0 { // ice thickness cannot go negative
				data[i] = 0
			}
		}
		if slot == 0 || slot == 1 {
			rec.Begin(SpanAllreduce, p)
			sum, err := m.GlobalSum()
			rec.End()
			if err != nil {
				return nil, err
			}
			if comm.Rank() == 0 {
				rec.Begin(SpanP2P, p)
				err := s.SendFloatsTo(cfg.Names.Coupler, 0, tagSums, []float64{sum})
				rec.End()
				if err != nil {
					return nil, err
				}
			}
		}
		rec.End() // period
	}
	return tracedRecvDiagnostics(s, cfg, rec)
}

func tracedCouplerSide(s *core.Setup, cfg coupler.Config, links [4]*coupler.Link, rec *Recorder) (*coupler.Diagnostics, error) {
	comm, _ := s.ProcInComponent(cfg.Names.Coupler)
	dtc := float64(cfg.SubSteps) * cfg.Dt
	d := &coupler.Diagnostics{}

	allreduce := func(p int, in []float64) ([]float64, error) {
		rec.Begin(SpanAllreduce, p)
		out, err := comm.AllreduceFloats(in, mpi.OpSum)
		rec.End()
		return out, err
	}

	for p := 0; p < cfg.Periods; p++ {
		rec.Begin(SpanPeriod, p)
		var fields [4]*grid.Field
		for i, l := range links {
			rec.Begin(SpanToCoupler, p)
			f, err := l.ToCoupler(nil, upTags[i])
			rec.End()
			if err != nil {
				return nil, err
			}
			fields[i] = f
		}
		atm, ocn, ice := fields[0], fields[1], fields[3]

		deltas := [4]*grid.Field{}
		for i, l := range links {
			proc, _ := l.OnCoupler()
			deltas[i] = grid.NewField(l.CouplerDecomp(), proc)
		}
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
			rec.Begin(SpanToModel, p)
			_, err := l.ToModel(deltas[i], downTags[i])
			rec.End()
			if err != nil {
				return nil, err
			}
		}

		localImbalance := 0.0
		for _, v := range deltas[0].Data {
			localImbalance += v
		}
		for _, v := range deltas[1].Data {
			localImbalance += v
		}
		imb, err := allreduce(p, []float64{localImbalance})
		if err != nil {
			return nil, err
		}
		d.FluxImbalance = append(d.FluxImbalance, imb[0])

		means := [4]float64{}
		for i, f := range fields {
			ws, w := f.LocalWeightedMean()
			out, err := allreduce(p, []float64{ws, w})
			if err != nil {
				return nil, err
			}
			means[i] = out[0] / out[1]
		}
		d.AtmMean = append(d.AtmMean, means[0])
		d.OcnMean = append(d.OcnMean, means[1])
		d.LandMean = append(d.LandMean, means[2])
		d.IceMean = append(d.IceMean, means[3])

		if comm.Rank() == 0 {
			total := 0.0
			for k := 0; k < 2; k++ {
				rec.Begin(SpanP2P, p)
				xs, _, _, err := s.RecvAny(tagSums)
				rec.End()
				if err != nil {
					return nil, err
				}
				vals, err := mpi.DecodeFloats(xs)
				if err != nil {
					return nil, err
				}
				total += vals[0]
			}
			d.Energy = append(d.Energy, total)
		}
		rec.End() // period
	}

	if comm.Rank() != 0 {
		return tracedRecvDiagnostics(s, cfg, rec)
	}
	flat := make([]float64, 0, 6*cfg.Periods)
	for _, xs := range DiagSeries(d) {
		flat = append(flat, xs...)
	}
	payload := mpi.EncodeFloats(flat)
	rec.Begin(SpanP2P, -1)
	defer rec.End()
	for r := 0; r < s.World().Size(); r++ {
		if r == s.GlobalProcID() {
			continue
		}
		if err := s.GlobalWorld().Send(r, tagDiag, payload); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func tracedRecvDiagnostics(s *core.Setup, cfg coupler.Config, rec *Recorder) (*coupler.Diagnostics, error) {
	rootWorld, err := s.WorldRankOf(cfg.Names.Coupler, 0)
	if err != nil {
		return nil, err
	}
	rec.Begin(SpanP2P, -1)
	data, _, err := s.GlobalWorld().Recv(rootWorld, tagDiag)
	rec.End()
	if err != nil {
		return nil, err
	}
	flat, err := mpi.DecodeFloats(data)
	if err != nil {
		return nil, err
	}
	np := cfg.Periods
	if len(flat) != 6*np {
		return nil, fmt.Errorf("traced: diagnostics payload has %d values, want %d", len(flat), 6*np)
	}
	return &coupler.Diagnostics{
		AtmMean:       flat[0*np : 1*np],
		OcnMean:       flat[1*np : 2*np],
		LandMean:      flat[2*np : 3*np],
		IceMean:       flat[3*np : 4*np],
		Energy:        flat[4*np : 5*np],
		FluxImbalance: flat[5*np : 6*np],
	}, nil
}
