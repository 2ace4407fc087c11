// Package job holds what the benchmark driver and its rank binary share: the
// generated input of one coupled job (Spec), the per-rank result file
// (Report), and the traced step-by-step mirror of coupler.RunCoupled.
//
// The driver derives every input from its seed and writes it to a Spec file;
// the rank binary reads nothing else, so the program under test receives
// only generated inputs. The driver also runs the same Spec in-process as the
// correctness reference, which is why Config lives here and not in the rank.
package job

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi/perf"
)

// Perturbation is a seed-derived multiplicative wave applied to one model
// component's initial field: cell *= 1 + Eps*sin(KLat*lat + KLon*lon + Phase).
// Multiplicative so zero cells (ice-free tropics) stay zero and positive
// fields stay positive.
type Perturbation struct {
	Eps, KLat, KLon, Phase float64
}

// Spec is the generated input of one coupled job.
type Spec struct {
	// NLat and NLon size the shared coupling grid.
	NLat, NLon int
	// Periods is the number of coupling exchanges, SubSteps the model steps
	// per exchange, Dt the model time step.
	Periods, SubSteps int
	Dt                float64
	// Perturb maps a model component name to its initial-field perturbation.
	Perturb map[string]Perturbation
	// Traced selects the step-by-step mirror with spans and the transport
	// probe instead of coupler.RunCoupled.
	Traced bool
	// OutDir receives every rank's Report and the component logs.
	OutDir string
}

// Config builds the coupler configuration of the spec. Names and
// ExchangeCoeff are set explicitly (to RunCoupled's defaults) so the traced
// mirror, which cannot call the coupler's private defaulting, sees the same
// values.
func (s Spec) Config() (coupler.Config, error) {
	g, err := grid.New(s.NLat, s.NLon)
	if err != nil {
		return coupler.Config{}, err
	}
	return coupler.Config{
		Grid:          g,
		Periods:       s.Periods,
		SubSteps:      s.SubSteps,
		Dt:            s.Dt,
		ExchangeCoeff: 0.02,
		Names:         coupler.DefaultNames(),
		Init: func(component string, m *model.SurfaceModel) error {
			p, ok := s.Perturb[component]
			if !ok {
				return fmt.Errorf("job: no perturbation for component %q", component)
			}
			f := m.Field()
			lo, _ := f.Decomp.Bands(f.P)
			for i := range f.Data {
				lat, lon := lo+i/s.NLon, i%s.NLon
				f.Data[i] *= 1 + p.Eps*math.Sin(p.KLat*float64(lat)+p.KLon*float64(lon)+p.Phase)
			}
			return nil
		},
	}, nil
}

// Save writes the spec as JSON.
func (s Spec) Save(path string) error { return writeJSON(path, s) }

// LoadSpec reads a spec written by Save.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	err := readJSON(path, &s)
	return s, err
}

// DiagNames labels the series DiagSeries returns.
var DiagNames = [6]string{"atm mean", "ocn mean", "land mean", "ice mean", "energy", "flux imbalance"}

// DiagSeries lists a Diagnostics' six per-period series in the order the
// coupler puts them on the wire.
func DiagSeries(d *coupler.Diagnostics) [6][]float64 {
	return [6][]float64{d.AtmMean, d.OcnMean, d.LandMean, d.IceMean, d.Energy, d.FluxImbalance}
}

// Probe is the transport probe a traced job runs after the coupled loop,
// between world rank 0 and the coupler root, through Comm.Send/Recv.
type Probe struct {
	// RTTus1K is the median round trip of 50 1 KiB ping-pongs, in µs.
	RTTus1K float64
	// BWMBs1M is the bandwidth of 20 1 MiB ping-pongs, in MB/s: bytes moved
	// both ways over the median round trip.
	BWMBs1M float64
}

// Report is what one rank writes to the job's OutDir at exit.
type Report struct {
	// Rank is the world rank.
	Rank int
	// Main, Wired, Setup and LoopEnd are the four wall-clock marks (Unix
	// ns): main entered, tcpnet.InitFromEnv returned, the MPH handshake
	// returned, the coupled loop returned.
	Main, Wired, Setup, LoopEnd int64
	// MaxRSSKB is the rank's resident-set high-water mark (VmHWM).
	MaxRSSKB int64
	// Snap is the rank's perf snapshot, taken after the closing barrier and
	// before the probe, so traced and untraced jobs count the same traffic.
	Snap perf.Snapshot
	// Diag is set on the coupler root only.
	Diag *coupler.Diagnostics `json:",omitempty"`
	// Spans and Probe are set by traced jobs only (Probe on world rank 0).
	Spans []Span `json:",omitempty"`
	Probe *Probe `json:",omitempty"`
}

// reportPath names rank's report file inside dir.
func reportPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.json", rank))
}

// Save writes the report to its place in dir.
func (r *Report) Save(dir string) error { return writeJSON(reportPath(dir, r.Rank), r) }

// LoadReport reads rank's report from dir.
func LoadReport(dir string, rank int) (*Report, error) {
	var r Report
	if err := readJSON(reportPath(dir, rank), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
