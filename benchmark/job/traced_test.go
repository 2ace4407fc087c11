package job

import (
	"math"
	"testing"

	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/mpi"
)

const testRegistration = "BEGIN\natmosphere\nocean\nland\nice\ncoupler\nEND\n"

// component maps a world rank of the 3/2/2/1/2 layout to its component.
func component(rank int) string {
	switch {
	case rank < 3:
		return "atmosphere"
	case rank < 5:
		return "ocean"
	case rank < 7:
		return "land"
	case rank < 8:
		return "ice"
	}
	return "coupler"
}

// TestRunTracedMirrorsRunCoupled runs the same spec through
// coupler.RunCoupled and through the traced mirror in one process and
// requires bit-identical diagnostics and a well-formed span tree.
func TestRunTracedMirrorsRunCoupled(t *testing.T) {
	spec := Spec{NLat: 24, NLon: 8, Periods: 5, SubSteps: 3, Dt: 0.5, Perturb: map[string]Perturbation{
		"atmosphere": {Eps: 0.01, KLat: 0.3, KLon: 0.2, Phase: 1},
		"ocean":      {Eps: 0.005, KLat: 0.1, KLon: 0.4, Phase: 2},
		"land":       {Eps: 0.003, KLat: 0.2, KLon: 0.1, Phase: 3},
		"ice":        {Eps: 0.008, KLat: 0.4, KLon: 0.3, Phase: 4},
	}}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	run := func(traced bool) (*coupler.Diagnostics, []Span) {
		var diag *coupler.Diagnostics
		var spans []Span
		err := mpi.RunWorld(10, func(c *mpi.Comm) error {
			s, err := core.SingleComponentSetup(c, core.TextSource(testRegistration), component(c.Rank()))
			if err != nil {
				return err
			}
			var rec Recorder
			var d *coupler.Diagnostics
			if traced {
				d, err = RunTraced(s, cfg, &rec)
			} else {
				d, err = coupler.RunCoupled(s, cfg)
			}
			if c.Rank() == 8 { // coupler root
				diag, spans = d, rec.Spans()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return diag, spans
	}
	want, _ := run(false)
	got, spans := run(true)

	wantSeries, gotSeries := DiagSeries(want), DiagSeries(got)
	for i, name := range DiagNames {
		w, g := wantSeries[i], gotSeries[i]
		if len(w) != spec.Periods || len(g) != spec.Periods {
			t.Fatalf("%s: %d and %d periods, want %d", name, len(w), len(g), spec.Periods)
		}
		for p := range w {
			if math.Float64bits(w[p]) != math.Float64bits(g[p]) {
				t.Errorf("%s period %d: RunCoupled %v, RunTraced %v", name, p, w[p], g[p])
			}
		}
	}

	periods := 0
	for i, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		switch {
		case s.Name == SpanPeriod:
			periods++
			if s.Parent != -1 {
				t.Errorf("period span %d has parent %d", i, s.Parent)
			}
		case s.Period >= 0:
			if p := s.Parent; p < 0 || spans[p].Name != SpanPeriod || spans[p].Period != s.Period {
				t.Errorf("span %d %s of period %d is not a child of that period's span", i, s.Name, s.Period)
			}
		}
	}
	if periods != spec.Periods {
		t.Errorf("%d period spans, want %d", periods, spec.Periods)
	}
}
